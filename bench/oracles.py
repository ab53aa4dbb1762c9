"""Independent checks of each CLI report.

Every check recomputes the expected answer without the code path it
judges: Gaussian binomials and chart-equation counts from closed forms,
classify verdicts from evaluating sum_j prod_{k != j} L_k(s) at random
rational points, and invariant-ring dimensions from partition counts.
Reports are read in the CLI's flat text form, one "key: value" per line.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb

from esymfano import fano
from esymfano.fields import QQ

# sha256 of the stdout of each xcheck and equations invocation the
# workloads make (full and tiny sizes; these take no seeded input), recorded
# when the benchmark was written.  CLI reports must stay byte-identical.
DIGESTS = {
    "xcheck --d 2 --m 6 --prime 3":
        "6525cec74c4db7620d067bc4294968461c44d878d9fb6877ce2029d41b94f88c",
    "xcheck --d 2 --m 4 --prime 3":
        "d3ec3d0f3c7089fc07513c8b981031083cf0a1297cc64775fb6a8048e9694890",
    "equations --d 4 --m 10":
        "c575ec1454b8aed6e80548d52956c0b031ac43e635b40a03627bfa82f510e1d9",
    "equations --d 5 --m 10":
        "b2c7188160cc97a92edef5f7f0155d80ab4116979dacf4ec13b76c57d294f78f",
    "equations --d 2 --m 5":
        "c3ce1b18c6596ab7e4c28fe11ea1c6916798cc2b9633c54532decd9d7eaa62e5",
    "equations --d 3 --m 6":
        "c216cc69e41bc6edb99569490438a4b42a3d412fd09991ae8e5fb77fc95f2619",
}

EVAL_POINTS = 3


def parse_report(text):
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"not a report line: {line[:80]!r}")
        report[key] = value
    return report


def parse_list(value):
    inner = value.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ValueError(f"not a list: {value[:80]!r}")
    inner = inner[1:-1].strip()
    return [x.strip() for x in inner.split(",")] if inner else []


def gaussian_binomial(m, d, p):
    """Number of d-dimensional subspaces of F_p^m."""
    num = den = 1
    for i in range(d):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def partitions_with_parts_at_most(k, n):
    ways = [1] + [0] * k
    for part in range(1, n + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def invariant_ring_dim(group, n, k):
    """Degree-k Hilbert function of the invariants of S_n or B_n (signed
    permutations) in characteristic 0 or above the group order."""
    if group == "S":
        return partitions_with_parts_at_most(k, n)
    return partitions_with_parts_at_most(k // 2, n) if k % 2 == 0 else 0


def almost_top_at(rows, point):
    """sum_j prod_{k != j} L_k(point), with L_k the k-th column form."""
    values = [sum(r[k] * s for r, s in zip(rows, point)) for k in range(len(rows[0]))]
    total = Fraction(0)
    prefix = Fraction(1)
    suffix = [Fraction(1)] * (len(values) + 1)
    for k in range(len(values) - 1, -1, -1):
        suffix[k] = suffix[k + 1] * values[k]
    for k, v in enumerate(values):
        total += prefix * suffix[k + 1]
        prefix *= v
    return total


def expected_member(rows, rng):
    """A member's expansion vanishes identically; a non-member's vanishes at
    a random point with probability at most (m-1)/10**6 (Schwartz-Zippel)."""
    for _ in range(EVAL_POINTS):
        point = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in rows]
        if almost_top_at(rows, point) != 0:
            return False
    return True


def read_matrix(path):
    """Rows of a Q matrix document as Fractions."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if lines[0] != "Q":
        raise ValueError(f"{path}: expected a Q document")
    return [[Fraction(tok) for tok in ln.split()] for ln in lines[1:]]


def work_units(workload, job):
    """Subspaces for xcheck, equations for equations, one per call otherwise."""
    if workload == "xcheck-fp":
        return gaussian_binomial(job["m"], job["d"], job["p"])
    if workload == "equations":
        return comb(job["m"] - 2 + job["d"], job["d"] - 1)
    return 1


def digest_problem(argv, out):
    want = DIGESTS.get(" ".join(argv))
    if want is not None and hashlib.sha256(out.encode()).hexdigest() != want:
        return "stdout differs from the recorded digest"
    return None


def check_xcheck(job, rc, report, out):
    total = gaussian_binomial(job["m"], job["d"], job["p"])
    if rc != 0:
        return f"exit {rc}"
    if report.get("mismatches") != "0":
        return f"mismatches {report.get('mismatches')}"
    if report.get("total") != str(total):
        return f"total {report.get('total')} != Gaussian binomial {total}"
    return digest_problem(job["argv"], out)


def check_equations(job, rc, report, out):
    d, m = job["d"], job["m"]
    count = comb(m - 2 + d, d - 1)
    if rc != 0:
        return f"exit {rc}"
    if report.get("equation_count") != str(count):
        return f"equation_count {report.get('equation_count')} != C({m - 2 + d}, {d - 1})"
    rendered = sum(1 for key in report if key.endswith(".coefficient"))
    if rendered != count:
        return f"{rendered} equations rendered, {count} expected"
    return digest_problem(job["argv"], out)


def check_invariants(job, rc, report, out):
    if rc != 0:
        return f"exit {rc}"
    if report.get("generated") != "true":
        return "generated is not true"
    for k in range(job["degree"] + 1):
        want = str(invariant_ring_dim(job["group"], job["n"], k))
        for col in ("invariant_dim", "subalgebra_dim"):
            got = report.get(f"per_degree.[{k}].{col}")
            if got != want:
                return f"degree {k} {col} {got}, Hilbert series gives {want}"
    return None


def check_classify(job, rc, report, out):
    """job carries the document rows and the oracle's verdict."""
    rows, member = job["rows"], job["member"]
    d, m = len(rows), len(rows[0])
    if rc != (0 if member else 1):
        return f"exit {rc}, oracle says member={member}"
    if report.get("member") != ("true" if member else "false"):
        return f"member {report.get('member')}, oracle says {member}"
    if "internal_error" in report:
        return report["internal_error"]
    if not member:
        exps = [0] * d
        for factor in report.get("witness_monomial", "1").split("*"):
            name, _, power = factor.partition("^")
            if not (name.startswith("s") and name[1:].isdigit() and 1 <= int(name[1:]) <= d):
                return f"bad witness factor {factor!r}"
            exps[int(name[1:]) - 1] += int(power or 1)
        if sum(exps) != m - 1:
            return f"witness degree {sum(exps)} != m - 1"
        return None
    T = fano.PlaneMatrix(QQ, rows)
    kind = report.get("certificate.kind")
    if kind == "zero_pair":
        i, j = (int(x) - 1 for x in parse_list(report["certificate.columns"]))
        cert = fano.ZeroPair(i, j)
    elif kind == "partition":
        count = int(report["certificate.num_classes"])
        classes = tuple(
            tuple(int(x) - 1 for x in parse_list(report[f"certificate.classes.[{c}]"]))
            for c in range(count)
        )
        scalars = tuple(Fraction(x) for x in parse_list(report["certificate.scalars"]))
        reps = tuple(tuple(x / scalars[cls[0]] for x in T.column(cls[0])) for cls in classes)
        cert = fano.PartitionCertificate(classes, reps, scalars)
    else:
        return f"member without a certificate (kind {kind})"
    if not fano.verify_certificate(T, cert):
        return f"{kind} certificate fails verify_certificate"
    return None


CHECKS = {
    "xcheck-fp": check_xcheck,
    "classify-q": check_classify,
    "invariants-q": check_invariants,
    "equations": check_equations,
}


def check(workload, job, rc, out, err):
    """None when the invocation's exit code and report agree with the
    oracle, else a one-line description of the first disagreement."""
    if err:
        return f"stderr: {err.strip()[:200]}"
    try:
        report = parse_report(out)
        return CHECKS[workload](job, rc, report, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        return f"unreadable report: {e!r}"
