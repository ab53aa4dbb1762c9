"""Planes inside the zero locus of the almost-top elementary symmetric polynomial.

A candidate (d-1)-plane in projective (m-1)-space is the row span of a full
rank d x m matrix T.  Membership in the Fano scheme of Z(E_{m-1}) is the
polynomial identity E_{m-1}((s) . T) = 0; the structural classification
detects it from the proportionality pattern of the columns of T, with the
per-class reciprocal-sum condition as certificate.  Everything here is
exact and field-agnostic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .fields import QQ, BudgetExceeded, FieldError
from .linalg import mat_mul, rank
from .poly import LinearForm, Polynomial, degree_monomials, esym_almost_top


# most isolated points enumerate_isolated builds; (2d - 1)!! passes it at d = 7
ISOLATED_BUDGET = 10**5

# most subspaces enumerate_subspaces (and so brute and xcheck) visits
ENUMERATION_BUDGET = 10**6

# most terms fano_chart_equations expands, an exact count: (d, m) = (6, 13)
# has 2.0M, (7, 14) 6.6M.  membership_expansion holds the bound on
# m * C(m + d - 2, d - 1), its m factor steps times the count of degree-(m-1)
# monomials in d variables.  For a random integer plane over Q that admits
# (6, 24) at 2.36M (4 s on a 2-core host) and refuses (7, 24) at 11.4M (24 s).
# The ceiling is intended: (6, 13), 2.0M chart terms and 23 s of expansion on
# the same host, is the largest chart equations job admitted, and one bound
# serves every caller, so a value low enough to refuse it would refuse the
# (6, 24) membership expansions too
EXPANSION_BUDGET = 3 * 10**6


@dataclass(frozen=True)
class PlaneMatrix:
    """Full-rank d x m scalar matrix; its row span is a candidate plane."""

    field: object
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        d = len(rows)
        if d == 0:
            raise ValueError("empty matrix")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged matrix")
        if d > m:
            raise ValueError(f"more rows ({d}) than columns ({m})")
        if rank(rows, self.field) != d:
            raise ValueError("matrix is rank deficient")

    @property
    def d(self):
        return len(self.rows)

    @property
    def m(self):
        return len(self.rows[0])

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.d))

    def column_forms(self):
        """The m linear forms in d variables given by the columns of T."""
        return [LinearForm(self.field, col) for col in zip(*self.rows)]


@dataclass(frozen=True)
class ZeroPair:
    """Two identically-zero columns (0-based indices)."""

    i: int
    j: int


@dataclass(frozen=True)
class PartitionCertificate:
    """Column partition into proportionality classes with reciprocal sums zero.

    classes[i] is a sorted tuple of 0-based column indices; representatives[i]
    is the shared column direction (first nonzero entry normalized to 1);
    scalars[j] is c_j with column_j = c_j * representative of j's class.
    """

    classes: tuple
    representatives: tuple
    scalars: tuple

    @property
    def num_classes(self):
        return len(self.classes)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificate: object = None  # ZeroPair | PartitionCertificate | None
    spans_full_span_space: bool = False
    # spans_full_span_space: the partition has exactly d classes, so the row
    # span is all of the certified subspace rather than a proper subspace.


# -- direct membership ----------------------------------------------------


def membership_expansion(T: PlaneMatrix) -> Polynomial:
    """E_{m-1} evaluated at the column forms of T, a polynomial in d variables,
    refused before the first product past EXPANSION_BUDGET term steps."""
    cost = T.m * comb(T.m + T.d - 2, T.d - 1)
    if cost > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"expansion of a {T.d} x {T.m} plane costs up to {cost} term steps, "
            f"over the budget of {EXPANSION_BUDGET}"
        )
    return esym_almost_top(T.column_forms())


def is_member_direct(T: PlaneMatrix) -> bool:
    return membership_expansion(T).is_zero()


# -- structural classification --------------------------------------------


def _normalised(col, field):
    """(col / c, c, 1 / c) for c the first nonzero entry of col."""
    c = next(filter(None, col), None)
    if c is None:
        raise ValueError("zero form present")
    inv = field.inv(c)
    return tuple(field.mul(y, inv) for y in col), c, inv


def _proportionality_classes(columns, field, memo=None):
    """(classes, representatives, scalars, inverses) for nonzero columns.

    classes lists the column indices sharing one direction, ordered by first
    index; representatives[i] is that direction with first nonzero entry 1;
    scalars[j] is c_j with columns[j] = c_j * representative of j's class,
    and inverses[j] is 1 / c_j.  memo, if given, maps each column tuple
    already seen to its _normalised triple and gains the columns not yet in
    it.
    """
    by_rep = {}
    scalars = []
    inverses = []
    for j, col in enumerate(columns):
        if memo is None:
            rep, c, inv = _normalised(col, field)
        else:
            known = memo.get(col)
            if known is None:
                known = memo[col] = _normalised(col, field)
            rep, c, inv = known
        by_rep.setdefault(rep, []).append(j)
        scalars.append(c)
        inverses.append(inv)
    classes = tuple(map(tuple, by_rep.values()))
    return classes, tuple(by_rep), tuple(scalars), tuple(inverses)


def _class_sum(cls, values, field):
    """The sum of values[j] over the indices j of one class."""
    total = field.zero
    for j in cls:
        total = field.add(total, values[j])
    return total


def classify(T: PlaneMatrix, memo=None) -> MembershipVerdict:
    """Decide membership from the column pattern of T alone: two zero
    columns, or no zero column and classes of at least two proportional
    columns whose reciprocal sums vanish.  Expands nothing; comparing with
    is_member_direct is the caller's independent check.  A memo dict kept
    across the planes of one field normalises each distinct column once."""
    field = T.field
    columns = list(zip(*T.rows))
    zero_cols = [j for j, col in enumerate(columns) if not any(col)]
    if len(zero_cols) >= 2:
        return MembershipVerdict(True, ZeroPair(zero_cols[0], zero_cols[1]))
    if zero_cols:
        # the single surviving product of the m-1 nonzero forms cannot vanish
        return MembershipVerdict(False)
    classes, reps, scalars, inverses = _proportionality_classes(columns, field, memo)
    if not all(
        len(cls) >= 2 and _class_sum(cls, inverses, field) == field.zero
        for cls in classes
    ):
        return MembershipVerdict(False)
    cert = PartitionCertificate(classes, reps, scalars)
    return MembershipVerdict(True, cert, spans_full_span_space=(len(classes) == T.d))


def verify_certificate(T: PlaneMatrix, cert) -> bool:
    """Re-check a membership certificate against T without re-deriving it."""
    field = T.field
    try:
        if isinstance(cert, ZeroPair):
            if cert.i == cert.j:
                return False
            for j in (cert.i, cert.j):
                if not 0 <= j < T.m:
                    return False
                if any(x != field.zero for x in T.column(j)):
                    return False
            return True
        if isinstance(cert, PartitionCertificate):
            covered = [j for cls in cert.classes for j in cls]
            if sorted(covered) != list(range(T.m)):
                return False
            if len(cert.representatives) != len(cert.classes):
                return False
            if len(cert.scalars) != T.m:
                return False
            if any(c == field.zero for c in cert.scalars):
                return False
            for cls, rep in zip(cert.classes, cert.representatives):
                if len(cls) < 2:
                    return False
                total = field.zero
                for j in cls:
                    col = T.column(j)
                    expected = tuple(field.mul(cert.scalars[j], x) for x in rep)
                    if col != expected:
                        return False
                    total = field.add(total, field.inv(cert.scalars[j]))
                if total != field.zero:
                    return False
            # distinct classes must not be proportional to one another
            for r1, r2 in itertools.combinations(cert.representatives, 2):
                if rank([r1, r2], field) < 2:
                    return False
            return True
    except (ZeroDivisionError, FieldError, TypeError, IndexError):
        return False
    return False


# -- chart defining equations -------------------------------------------


def fano_chart_equations(d: int, m: int, field=QQ):
    """Defining equations of the Fano scheme on the standard chart.

    The chart matrix has the identity in columns 1..d and unknown columns
    a_{i,k} in columns d+1..m.  E_{m-1} is symmetric in the columns, so every
    other coordinate chart gives the same equations up to renaming the
    unknowns.  Returns one polynomial in the d*(m-d) unknowns per
    degree-(m-1) monomial in the s variables (graded-lex monomial order),
    C(m-2+d, d-1) equations in all.
    """
    if not 1 <= d < m:
        raise ValueError(f"need 1 <= d < m, got d={d}, m={m}")
    # E_{m-1} is the sum of the omit-one products, and their terms never meet:
    # omitting one of the d pivots s_i leaves d**(m-d) monomials (one row i
    # per avoided column), omitting one of the m - d avoided columns leaves
    # d**(m-d-1).  For d >= 2 that is more than 2**(m-d-1), so a huge size is
    # refused on that bound before the exact count is formed
    huge = d >= 2 and m - d - 1 >= EXPANSION_BUDGET.bit_length()
    terms = f"more than 2^{m - d - 1}" if huge else d ** (m - d - 1) * (d * d + m - d)
    if huge or terms > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"chart expansion of {terms} terms exceeds the budget of {EXPANSION_BUDGET}"
        )
    # C(m + d - 2, d - 1) is a product of d - 1 factors (m - 1 + i) / i >= 2
    huge = d - 1 >= EXPANSION_BUDGET.bit_length()
    count = f"at least 2^{d - 1}" if huge else comb(m + d - 2, d - 1)
    if huge or count > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"{count} chart equations exceed the budget of {EXPANSION_BUDGET}"
        )
    # for d = 1 both bounds pass any m (m terms, one equation), yet each of
    # the m terms is a key of m exponent cells that the m factor steps
    # rewrite, so the work grows as m^3: (1, 800) takes 2 s and (1, 1732),
    # the largest admitted, 28 s.  Refuse on the m^2 cells; for d >= 2 the
    # bounds above keep the m(d(m - d) + d) cells at most 900, at (10, 15)
    if d == 1 and m * m > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"chart expansion of {m} terms in {m} variables ({m * m} exponent cells) "
            f"exceeds the budget of {EXPANSION_BUDGET}"
        )
    na = d * (m - d)
    ntot = na + d  # unknowns first, then the s variables

    def mono(*indices):
        return tuple(int(v in indices) for v in range(ntot))

    # pivot column i is s_i, avoided column k is sum_i a_{i,k} s_i; E_{m-1}
    # is symmetric, so the columns may come in any order
    one = field.one
    columns = [Polynomial(field, ntot, {mono(na + i): one}) for i in range(d)]
    columns += [
        Polynomial(field, ntot, {mono(i * (m - d) + k, na + i): one for i in range(d)})
        for k in range(m - d)
    ]
    expansion = esym_almost_top(columns)

    by_s_monomial = {}
    for exps, coeff in expansion.terms.items():
        a_part = exps[:na]
        s_part = exps[na:]
        bucket = by_s_monomial.setdefault(s_part, {})
        bucket[a_part] = coeff
    equations = []
    for s_mono in degree_monomials(d, m - 1):
        # the kernel's exponents and nonzero coefficients need no re-check
        eq = Polynomial(field, na)
        eq.terms = by_s_monomial.get(s_mono, {})
        equations.append((s_mono, eq))
    return equations


def expected_dimension(d: int, m: int) -> int:
    """Naive dimension count d(m-d) - C(d+m-2, d-1); may well be negative."""
    if not 1 <= d < m:
        raise ValueError(f"need 1 <= d < m, got d={d}, m={m}")
    return d * (m - d) - comb(d + m - 2, d - 1)


def stratum_dimension(classes) -> int:
    """Moduli per class: |class| - 2 scalar choices after the reciprocal
    relation and one overall scaling.  Zero exactly when all classes are pairs."""
    total = 0
    for cls in classes:
        if len(cls) < 2:
            raise ValueError(f"singleton class {tuple(cls)} admits no certificate")
        total += len(cls) - 2
    return total


# -- matchings and isolated points ----------------------------------------


def matchings(two_d: int):
    """All pairings of {0..two_d-1} into two_d/2 pairs, lex by sorted pair lists."""
    if two_d < 2 or two_d % 2:
        raise ValueError(f"need a positive even count, got {two_d}")
    # (pairs so far, indices left); the first index left pairs with each later one
    partial = [((), tuple(range(two_d)))]
    for _ in range(two_d // 2):
        partial = [
            (pairs + ((rest[0], rest[i]),), rest[1:i] + rest[i + 1 :])
            for pairs, rest in partial
            for i in range(1, len(rest))
        ]
    return [pairs for pairs, _ in partial]


def enumerate_isolated(d: int, field=QQ):
    """The isolated Fano points for m = 2d: one plane per pairing of the
    coordinates, cut out by x_j + x_j' = 0 over the pairs."""
    if d < 1:
        raise ValueError("d must be positive")
    m = 2 * d
    total = 1  # (2d - 1)!!, the number of pairings
    for k in range(1, m, 2):
        total *= k
        if total > ISOLATED_BUDGET:
            # the factors left, k + 2 up to m - 1, only make the count larger
            more = "more than " if k + 2 < m else ""
            raise BudgetExceeded(
                f"{more}{total} isolated points exceed the budget of {ISOLATED_BUDGET}"
            )
    results = []
    for match in matchings(m):
        rows = []
        for a, b in match:
            row = [field.zero] * m
            row[a] = field.one
            row[b] = field.neg(field.one)
            rows.append(tuple(row))
        results.append((match, PlaneMatrix(field, tuple(rows))))
    return results


# -- member sampling -------------------------------------------------------


def sample_member(classes, scalars, d: int, field=QQ, seed: int = 0) -> PlaneMatrix:
    """A random full-rank d x m matrix whose row span lies in the subspace
    spanned by the class vectors w_i = sum_{j in class i} c_j e_j."""
    classes = [tuple(sorted(cls)) for cls in classes]
    m = sum(len(cls) for cls in classes)
    if sorted(j for cls in classes for j in cls) != list(range(m)):
        raise ValueError("classes do not partition the column index set")
    if len(scalars) != m:
        raise ValueError("need one scalar per column")
    if any(c == field.zero for c in scalars):
        raise ValueError("scalars must be nonzero")
    inverses = [field.inv(c) for c in scalars]
    for cls in classes:
        if _class_sum(cls, inverses, field) != field.zero:
            raise ValueError(f"reciprocal sum over class {cls} is nonzero")
    k = len(classes)
    if not 1 <= d <= k:
        raise ValueError(f"need 1 <= d <= {k} classes, got d={d}")
    w = []
    for cls in classes:
        vec = [field.zero] * m
        for j in cls:
            vec[j] = scalars[j]
        w.append(vec)
    rng = random.Random(seed)
    while True:
        mix = [[field.from_int(rng.randint(-9, 9)) for _ in range(k)] for _ in range(d)]
        if rank(mix, field) == d:
            break
    return PlaneMatrix(field, mat_mul(mix, w, field))


def random_partition_certificate(class_sizes, rng):
    """Random (classes, scalars) with each class reciprocal sum exactly zero.

    class_sizes is a sequence of sizes >= 2; columns are assigned to classes
    in a random order.  The scalars are Fractions.
    """
    if any(size < 2 for size in class_sizes):
        # one nonzero reciprocal cannot sum to zero
        raise ValueError(f"class sizes must be at least 2, got {list(class_sizes)}")
    m = sum(class_sizes)
    cols = list(range(m))
    rng.shuffle(cols)
    classes = []
    pos = 0
    for size in class_sizes:
        classes.append(tuple(sorted(cols[pos : pos + size])))
        pos += size
    scalars = [None] * m
    for cls in classes:
        # pick nonzero reciprocals summing to zero: free choices then balance
        while True:
            recips = [Fraction(rng.randint(-9, 9)) for _ in range(len(cls) - 1)]
            last = -sum(recips)
            if all(r != 0 for r in recips) and last != 0:
                recips.append(last)
                break
        for j, r in zip(cls, recips):
            scalars[j] = 1 / r
    return classes, tuple(scalars)


# -- exhaustive finite-field oracle ----------------------------------------


def gaussian_binomial(m: int, d: int, p: int) -> int:
    num = 1
    den = 1
    for i in range(d):
        num *= p ** (m - i) - 1
        den *= p ** (d - i) - 1
    return num // den


def enumerate_subspaces(d: int, m: int, field, budget: int = ENUMERATION_BUDGET):
    """Every d-subspace of F_p^m exactly once as its RREF matrix, ordered
    lexicographically by pivot set then by the free entries in row-major
    order.  The planes skip PlaneMatrix's checks: d pivot columns forming the
    identity give rank d."""
    if not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    p = field.characteristic
    # p**(d*(m-d)) <= [m choose d]_p, so a huge size is refused on that bound
    # before the exact count is formed
    huge = d * (m - d) * (p.bit_length() - 1) >= budget.bit_length()
    total = f"at least {p}^{d * (m - d)}" if huge else gaussian_binomial(m, d, p)
    if huge or total > budget:
        raise BudgetExceeded(
            f"{total} subspaces exceed the budget of {budget}; raise --budget"
        )
    # d = m has no free entry; for d < m, p <= [m choose d]_p bounds the list
    elements = tuple(map(field.from_int, range(p))) if d < m else ()
    zero, one = (field.zero,), (field.one,)
    for pivots in itertools.combinations(range(m), d):
        # row i runs over its free entries, the last fastest; the rows vary
        # independently, so a plane is one pick per row.  Row 0 has the most
        # free entries and is never held, so a later row holds at most
        # sqrt([m choose d]_p) picks
        rows = [
            itertools.product(*[
                one if j == c else zero if j < c or j in pivots else elements
                for j in range(m)
            ])
            for c in pivots
        ]
        later = [list(row) for row in rows[1:]]
        for first in rows[0]:
            for rest in itertools.product(*later):
                T = object.__new__(PlaneMatrix)
                object.__setattr__(T, "field", field)
                object.__setattr__(T, "rows", (first, *rest))
                yield T


def _planes_with_direct(d, m, field, budget):
    """(T, is_member_direct(T)) for every enumerated plane.  E_{m-1} is
    symmetric, so the verdict depends only on the multiset of T's columns;
    each multiset is expanded once per enumeration."""
    direct_by_columns = {}
    for T in enumerate_subspaces(d, m, field, budget):
        key = tuple(sorted(zip(*T.rows)))
        direct = direct_by_columns.get(key)
        if direct is None:
            direct = direct_by_columns[key] = is_member_direct(T)
        yield T, direct


def brute_force_members(d: int, m: int, field, budget: int = ENUMERATION_BUDGET):
    """Exhaustive membership filter over a prime field."""
    return [T for T, direct in _planes_with_direct(d, m, field, budget) if direct]


def cross_check(d: int, m: int, field, budget: int = ENUMERATION_BUDGET):
    """Assert classify == direct expansion on every subspace; report stats."""
    total = 0
    members = 0
    mismatches = 0
    examples = []  # the rows of the first five mismatching planes
    cert_hist = {"zero_pair": 0, "partition": 0}
    class_count_hist = {}
    memo = {}  # column -> its normalised pair, at most p^d entries
    for T, direct in _planes_with_direct(d, m, field, budget):
        total += 1
        verdict = classify(T, memo)
        if verdict.member != direct:
            mismatches += 1
            if len(examples) < 5:
                examples.append(T.rows)
        if verdict.member:
            members += 1
            if isinstance(verdict.certificate, ZeroPair):
                cert_hist["zero_pair"] += 1
            else:
                cert_hist["partition"] += 1
                k = verdict.certificate.num_classes
                class_count_hist[k] = class_count_hist.get(k, 0) + 1
    return {
        "d": d,
        "m": m,
        "p": field.characteristic,
        "total": total,
        "members": members,
        "mismatches": mismatches,
        "mismatch_examples": examples,
        "certificate_histogram": cert_hist,
        "class_count_histogram": class_count_hist,
    }


# -- reciprocal relation space ---------------------------------------------


def reciprocal_relation_space(forms):
    """Basis of {lambda : sum_j lambda_j / f_j = 0} for nonzero linear forms.

    Reciprocals of pairwise non-proportional forms are linearly independent,
    so every relation lives inside the proportionality classes: with
    f_j = c_j r, each column j after the first column f of its class gives
    the vector 1 at j and -c_f / c_j at f.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("empty form list")
    field, d = forms[0].field, forms[0].nvars
    if any(g.field != field or g.nvars != d for g in forms):
        raise FieldError("forms over different fields or numbers of variables")
    classes, _, scalars, inverses = _proportionality_classes(
        [g.coeffs for g in forms], field
    )
    basis = []
    for j, f in sorted((j, cls[0]) for cls in classes for j in cls[1:]):
        vec = [field.zero] * len(forms)
        vec[j] = field.one
        vec[f] = field.neg(field.mul(scalars[f], inverses[j]))
        basis.append(tuple(vec))
    return basis


def proportionality_class_count(forms) -> int:
    classes, _, _, _ = _proportionality_classes([g.coeffs for g in forms], forms[0].field)
    return len(classes)
