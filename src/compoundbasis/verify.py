"""Mechanical verification harness.

Every registered claim is a pure function of a degree ``n`` that either
confirms a family of identities exhaustively at that degree or returns a
counterexample payload naming the offending labels.  ``check`` runs one
claim at one degree and wraps the outcome in a :class:`VerificationReport`;
``check_all`` sweeps every registered claim over a degree range, honouring
per-claim degree caps that keep the sweep inside a desk-scale time budget.

Each claim is one row of ``_CLAIM_TABLE``: its id, its check and its cap,
from which ``_CLAIMS`` and :data:`CLAIM_CAPS` are both read.  A cap is
configuration, not mathematics: raising it in that row re-runs the same
check at larger degrees, at a super-polynomial cost in time.

A check that compares entries finds its first miss with ``_misses`` and
reports it through ``_miss``, one payload layout for every such check.
"""

from __future__ import annotations

import json
import math
import os
import time
from functools import cache
from itertools import groupby
from operator import mul, ne
from typing import NamedTuple

from . import _EXPORTS
from .golden import golden_matrix, paper_layout, paper_order
from .labeled import LabeledIntMatrix, label_str, pair_class
from .partitions import (
    Partition,
    dominance_leq,
    generate_partitions,
    glaisher,
    h_abacus_decompose,
    partition_str,
    phi,
    psi,
    psi_inverse,
    two_core_quotient,
    weight,
    z_factor,
)
from .symfunc import character, green_function, q_prime
from .tables import (
    _chi_rows,
    _class_table,
    _exact,
    _green_rows,
    _kostka_column,
    _lr_counts,
    _matmul,
    _pairing,
)
from .transition import (
    blocks,
    build_A,
    build_Gamma,
    canonical_pairs,
    cartan_like,
    gram_G,
    k_value,
    matrix_det,
    smith_normal_form,
)

__all__ = list(_EXPORTS["verify"])


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

class VerificationReport(NamedTuple):
    """Outcome of one claim at one degree."""

    claim_id: str
    n: int
    status: str  # "pass" or "fail"
    details: dict | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return dict(self._asdict(), elapsed_ms=round(self.elapsed_ms, 3))

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict())


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def compare_matrices(expected: LabeledIntMatrix, actual: LabeledIntMatrix) -> dict | None:
    """None when equal; otherwise a payload naming the first difference.

    Entry differences name the exact row and column labels.
    """
    for field in ("row_labels", "col_labels"):
        want, got = getattr(expected, field), getattr(actual, field)
        if want != got:
            return {
                "mismatch": field,
                "expected": [label_str(l) for l in want],
                "actual": [label_str(l) for l in got],
            }
    labels = expected.row_labels, expected.col_labels
    for p, q, a, e in _misses(*labels, actual.entries, expected.entries):
        return {"mismatch": "entry", **_miss(p, q, e, a)}
    return None


def _misses(rows, cols, got, want):
    """(p, q, g, w) in row-major order for each entry g of ``got`` missing
    its entry w of ``want``, p and q its labels.  A matching row is skipped by
    one element-wise test: rows are lists or tuples, which never compare equal."""
    for p, g_row, w_row in zip(rows, got, want):
        if any(map(ne, g_row, w_row)):
            for q, g, w in zip(cols, g_row, w_row):
                if g != w:
                    yield p, q, g, w


def _miss(p, q, want, got, row="row", col="col", **more) -> dict:
    """The payload of an entry missed at labels p, q: the two labels under
    the keys ``row`` and ``col``, then ``want`` as "expected", ``got`` as
    "actual" and the keys of ``more``, in that order."""
    return {row: label_str(p), col: label_str(q), "expected": want, "actual": got, **more}


def _ratio(num: int, den: int) -> str:
    """num / den in lowest terms as a payload writes it ("-3/7", "2"); only
    a failing claim imports ``fractions``."""
    from fractions import Fraction

    return str(Fraction(num, den))


def _diagonal(values) -> list[list[int]]:
    """The square matrix with ``values`` on its diagonal and 0 off it."""
    return [[0] * i + [v] + [0] * (len(values) - i - 1) for i, v in enumerate(values)]


def _compound_misses(n: int, left_rows=None):
    """The ``_misses`` of M diag(2^{n - len(mu_r)}) M^T against the diagonal
    matrix diag(z_rho 2^{n - len(rho)}), class by class of the table, with M
    on the left replaced by ``left_rows(keys, pairs)`` when given: sum_mu
    W_mu(x) V_mu(y) against the degree-n squared Cauchy kernel sum_rho
    2^{len(rho)} p_rho(x) p_rho(y) / z_rho, each coefficient scaled by z_rho
    z_rho' 2^{n - len(rho) - len(rho')}.  Keys of two classes pair to 0."""
    for keys, prs, rows in _class_table(n).values():
        left = rows if left_rows is None else left_rows(keys, prs)
        product = _matmul(left, [1 << n - len(r) for r, _ in prs], list(zip(*rows)))
        kernel = _diagonal([z_factor(k) << n - len(k) for k in keys])
        yield from _misses(keys, keys, product, kernel)


# --------------------------------------------------------------------------
# Claims.  Each returns (ok, details).
# --------------------------------------------------------------------------

def _claim_length_statistics(n: int):
    """Summed length statistics agree along every stated chain, both over all
    partitions of n and within each class (n0, n1)."""
    totals: dict[tuple[int, int] | None, list[int]] = {}
    for lam in generate_partitions(n):
        r, d = phi(lam)
        odd, ev = psi(lam)
        vec = (len(lam), len(r), len(d), len(odd), len(ev), len(glaisher(r)))
        for scope in (None, (weight(r), weight(d))):
            acc = totals.setdefault(scope, [0] * 6)
            for i, v in enumerate(vec):
                acc[i] += v
    class_count = len(totals) - 1
    for scope, (sl, slr, sld, slo, sle, sltr) in sorted(
        totals.items(), key=lambda kv: (kv[0] is not None, kv[0] or (0, 0))
    ):
        if scope is None:
            chains = {
                "length": [sl, slr + 2 * sld, slo + sle, sltr + sle],
                "even-length": [2 * sld, 2 * sle, slo + sle - slr, sltr + sle - slr],
            }
        else:
            chains = {
                "length": [sl, slr + 2 * sld, slo + sle],
                "even-length": [2 * sld, slo + sle - slr],
            }
        for chain_name, values in chains.items():
            if len(set(values)) != 1:
                return False, {
                    "scope": "all" if scope is None else list(scope),
                    "chain": chain_name,
                    "values": values,
                }
    return True, {"partitions": len(generate_partitions(n)), "classes": class_count}


def _claim_cauchy_kernel(n: int):
    """Degree-n component of the squared Cauchy kernel: the compound-by-dual
    expansion and the doubled-Schur-by-Schur expansion both equal the diagonal
    power-sum kernel with coefficient 2^len / z.  Scaled as in
    ``_compound_misses``, the first is M diag(2^{n - len(mu_r)}) M^T on each
    class of the table, the second sum_lam chi^lam_rho chi^lam_rho'
    2^{n - len(rho')}, and the kernel diag(z_rho 2^{n - len(rho)})."""
    keys = generate_partitions(n)
    chi = _chi_rows(keys, keys)  # chi[lam][rho] = chi^lam_rho
    right = [[c << n - len(k) for c, k in zip(row, keys)] for row in chi]
    schur = _matmul(list(zip(*chi)), [1] * len(keys), right)
    kernel = _diagonal([z_factor(k) << n - len(k) for k in keys])
    for name, misses in (
        ("compound-by-dual", _compound_misses(n)),
        ("doubled-schur-by-schur", _misses(keys, keys, schur, kernel)),
    ):
        miss = min(misses, default=None)  # the least (key_x, key_y)
        if miss:
            kx, ky, got, want = miss
            shift, scale = len(kx) + len(ky), z_factor(kx) * z_factor(ky) << n
            want, got = _ratio(want << shift, scale), _ratio(got << shift, scale)
            return False, _miss(kx, ky, want, got, "key_x", "key_y", expansion=name)
    return True, {"diagonal_terms": len(keys)}


def _claim_duality_gram(n: int):
    """The compound family and its dual family pair to the identity matrix
    under the twisted inner product: M^T diag(2^{len(rho)} / z_rho) M =
    diag(2^{len(mu_r)}) on each class of the table; classes share no key."""
    fact = math.factorial(n)
    for keys, prs, rows in _class_table(n).values():
        gram = _pairing(n, list(zip(*rows)), keys, rows)
        unit = _diagonal([fact << len(r) for r, _ in prs])
        for p, q, got, want in _misses(prs, prs, gram, unit):
            scale = fact << len(q[0])
            return False, _miss(p, q, _ratio(want, scale), _ratio(got, scale))
    return True, {"size": len(canonical_pairs(n))}


def _claim_transition_integral(n: int):
    """The transition matrix is integral and exact: the integer entries
    reproduce every doubled Schur function.

    Scaled by z_rho / 2^{len(rho)}, the coefficient of p_rho in S_lam(x, x)
    is chi^lam_rho, and in W_mu it is M[rho][mu] = X^{mu_r}_sigma
    chi^{mu_d}_tau, with rho = sigma + 2 tau.  Each row is checked as
    A M^T = X over every rho |- n, one ``_matmul`` per class of the table
    (M is block diagonal), each row lam compared across every class before
    the next; ``_misses`` names the first miss by lam and rho.

    ``build_A`` is the closed formula, so the check is real on every class
    with n1 >= 1: there A reads Gamma of lower degree and signed domino
    tableaux, whose guards read one character column each, (2^{n1} 1^{n0}),
    and no other character of degree n.  On class (n, 0) A is Gamma_n, the
    pairing of these same characters, which ``stembridge-structure``
    guards.  Since M is square and invertible on each class, A M^T = X pins
    A, the columns ``build_A`` reads off others by omega included.  The
    domino tableaux share no S_d(x^2) expansion with ``two-sign-oracle``."""
    mat = build_A(n)
    col = {pair: j for j, pair in enumerate(mat.col_labels)}
    keys, products = [], []
    for class_keys, prs, rows in _class_table(n).values():
        a_rows = [[row[col[p]] for p in prs] for row in mat.entries]
        keys += class_keys
        products.append(_matmul(a_rows, [1] * len(prs), list(zip(*rows))))
    got = [[x for part in parts for x in part] for parts in zip(*products)]
    for lam, rho, g, w in _misses(mat.row_labels, keys, got, _chi_rows(keys, mat.row_labels)):
        detail = "integer expansion does not reproduce the doubled Schur function"
        return False, _miss(lam, rho, w, g, col="key", detail=detail)
    return True, {"size": mat.shape[0]}


def _claim_elementary_divisors(n: int):
    """The elementary divisors of the Gram matrix on strict labels are
    2^(len(glaisher(lam)) - len(lam)) over strict partitions of n."""
    got = smith_normal_form(gram_G(n))
    want = tuple(
        sorted(1 << (len(glaisher(lam)) - len(lam)) for lam in generate_partitions(n, "strict"))
    )
    if got != want:
        return False, {"expected": list(want), "actual": list(got)}
    return True, {"divisors": list(got)}


def _claim_determinant(n: int):
    """abs(det) of the transition matrix is 2^k_n, with k_n given by two
    agreeing closed sums.  A passing degree is read off the class blocks of
    (transpose A) A (``_gram_abs_det``), the split that ``thm-4.8`` and
    ``prop-4.9`` read; when the product is not block diagonal or its
    blocks miss 4^k_n, Bareiss on A itself decides, and a failure names
    the signed det A."""
    k = k_value(n)
    if _gram_abs_det(n) == 1 << k:
        return True, {"k_n": k}
    det = matrix_det(build_A(n))
    if abs(det) != 1 << k:
        return False, {"k_n": k, "expected_abs": str(1 << k), "actual_det": str(det)}
    return True, {"k_n": k}


@cache
def _gram_classes(n: int) -> tuple:
    """(transpose A_n) A_n, one ``_matmul`` of A's columns with A formed once
    per degree, split at the contiguous class spans of A's column labels:
    (class, pairs, block rows) for each class in column order, and the first
    nonzero entry between two classes in row-major order, as ``_misses``
    yields it against 0, or None.  ``thm-4.6`` reads the blocks'
    determinants, ``prop-4.9`` their entries and ``thm-4.8`` the entry."""
    mat = build_A(n)
    product = _matmul(list(zip(*mat.entries)), [1] * mat.shape[0], mat.entries)
    labels, classes, between, at = mat.col_labels, [], None, 0
    for cls, group in groupby(labels, pair_class):
        prs = tuple(group)
        end = at + len(prs)
        rows = product[at:end]
        classes.append((cls, prs, tuple(tuple(row[at:end]) for row in rows)))
        if between is None:
            outside = [row[:at] + row[end:] for row in rows]
            zeros = [[0] * (len(labels) - len(prs))] * len(prs)
            between = next(_misses(prs, labels[:at] + labels[end:], outside, zeros), None)
        at = end
    return tuple(classes), between


def _gram_abs_det(n: int) -> int | None:
    """abs(det A_n) read off the class blocks of ``_gram_classes(n)``, None
    when the product has a nonzero entry between two classes.
    det((transpose A) A) = det(A)^2, and a block diagonal matrix's det is
    the product of its blocks' dets, each one ``matrix_det`` of a class
    block (at most 10 x 10 at n = 10)."""
    classes, between = _gram_classes(n)
    if between:
        return None
    return math.isqrt(math.prod(abs(matrix_det(rows)) for _, _, rows in classes))


def _claim_block_determinants(n: int):
    """The Gram matrix of the transition matrix is block diagonal over the
    classes (n0, n1): the product (transpose A) A is 0 at every entry
    between two classes (``_gram_classes``), and the determinant of each
    block of ``blocks`` is the predicted power of 2.  ``prop-4.9`` checks
    the entries within a class."""
    miss = _gram_classes(n)[1]
    if miss:
        p, q, g, w = miss
        return False, _miss(p, q, w, g)
    summary = []
    for cls, block in blocks(n).items():
        exponent = sum(len(glaisher(r)) + len(d) - len(r) for r, d in block.row_labels)
        det = matrix_det(block)
        if abs(det) != 1 << exponent:
            return False, {
                "block": list(cls),
                "expected_abs": str(1 << exponent),
                "actual_det": str(det),
            }
        summary.append({"class": list(cls), "size": block.shape[0], "exponent": exponent})
    return True, {"blocks": summary}


def _claim_cartan_entries(n: int):
    """Within each class, the Gram matrix of the transition matrix is the
    Hall Gram of the dual family read off the class table, ``blocks``:
    2^{-len(r1)-len(r2)} sum_rho 4^{len(rho)} M[rho][mu1] M[rho][mu2] / z_rho,
    which factors as <P, P> times <S(x^2), S(x^2)> of the label components by
    construction (M[rho][mu] = X^{mu_r}_sigma chi^{mu_d}_tau, rho = sigma +
    2 tau).  The check is that each class block of (transpose A) A, A built
    by the closed formula (``_gram_classes``), misses the block of its class
    at no entry; ``thm-4.8`` checks the entries between classes."""
    classes, gram = _gram_classes(n)[0], blocks(n)
    for cls, prs, rows in classes:
        for p, q, g, w in _misses(prs, prs, rows, gram[cls].entries):
            return False, _miss(p, q, w, g)
    return True, {"size": len(canonical_pairs(n))}


def _claim_frobenius_formula(n: int):
    """Every power-sum monomial of degree n expands over exactly one class
    (n0, n1) of compound elements, with coefficients built from one Green
    value and one linear character value: p_rho = sum_mu
    2^{-len(mu_r)} X^{mu_r}_sigma chi^{mu_d}_tau W_mu, rho = sigma + 2 tau.
    The product is that of ``prop-4.1``, with its left factor read entry by
    entry from ``green_function`` and the recursive ``character``.  Only the
    character factor is independent of the tables: ``green_function`` reads
    ``tables._green_rows``, the table M is built from, whose oracle is the
    Pfaffian of the tests."""
    def oracle(keys, prs):
        return [[green_function(r, s) * character(d, t) for r, d in prs] for s, t in map(psi, keys)]

    miss = next(_compound_misses(n, oracle), None)  # the first in walk order
    if miss:
        sigma, tau = psi(miss[0])
        return False, {
            "class": [weight(sigma), weight(tau)],
            "sigma": partition_str(sigma),
            "rho": partition_str(tau),
            "key": partition_str(miss[0]),
        }
    return True, {"monomials": len(generate_partitions(n))}


def _claim_core_free_correspondence(n: int):
    """Strict partitions of 2n with empty core and zero charge correspond
    one-to-one, via their two runner readings, with pairs of a strict
    partition of n0 and a partition of n1 where n0 + 2*n1 = n."""
    image: dict = {}
    for lam in generate_partitions(2 * n, "strict"):
        dec = h_abacus_decompose(lam)
        if dec.core == () and dec.charge == 0:
            image[lam] = (dec.shifted0, dec.quotient1)
    target = set(canonical_pairs(n))
    got = set(image.values())
    if len(got) != len(image):
        return False, {"detail": "runner readings repeat on the core-free set"}
    if got != target:
        missing = sorted(target - got)
        extra = sorted(got - target)
        return False, {
            "missing": [label_str(p) for p in missing[:5]],
            "extra": [label_str(p) for p in extra[:5]],
        }
    return True, {"cardinality": len(image)}


def _claim_stembridge_structure(n: int):
    """``build_Gamma``, the coefficients of each doubled Schur function over
    the Q family, is the one solution of X_odd Gamma^T = chi_odd on odd keys
    k (z_k [p_k] of Q_mu and S_lam(x, x) are 2^{len(k)} X^mu_k and
    2^{len(k)} chi^lam_k): det X_odd != 0 by ``matrix_det``, and the product
    is one ``_matmul``.  Its entries are nonnegative integers, vanish below
    dominance and are 1 on the strict diagonal."""
    gamma = build_Gamma(n)
    rows, stricts = gamma.row_labels, gamma.col_labels
    keys = generate_partitions(n, "odd")
    if len(keys) != len(stricts):
        return False, {"detail": "odd and strict label counts differ"}
    green = _green_rows(keys, stricts)  # green[mu][k] = X^mu_k
    if not matrix_det(green):
        return False, {"detail": "the Green table on odd keys is singular"}
    product = _matmul(gamma.entries, [1] * len(stricts), green)
    for lam, k, got, want in _misses(rows, keys, product, _chi_rows(keys, rows)):
        detail = "Gamma does not solve the Green system"
        return False, _miss(lam, k, want, got, col="key", detail=detail)
    for lam, row in zip(rows, gamma.entries):
        for mu, val in zip(stricts, row):
            if val < 0:
                return False, {
                    "row": partition_str(lam),
                    "col": partition_str(mu),
                    "actual": val,
                    "detail": "coefficient is not a nonnegative integer",
                }
            if val and not dominance_leq(lam, mu):
                return False, {
                    "row": partition_str(lam),
                    "col": partition_str(mu),
                    "actual": val,
                    "detail": "nonzero coefficient below dominance",
                }
            if lam == mu and val != 1:
                return False, _miss(lam, mu, 1, val, detail="strict diagonal is not 1")
    return True, {"rows": len(rows), "cols": len(stricts)}


def _claim_qprime_kostka(n: int):
    """Each Q'-function expands over compound-type products with Kostka
    coefficients, q'_lam = Q_r(x, x) h_d(x^2) = sum_nu K_{nu,d} Q_r(x, x)
    S_nu(x^2) for (r, d) = phi(lam), and so reduces to the doubled Q
    function on strict labels (d empty).  Read off q'_lam's own
    coefficients, z_rho [p_rho]q'_lam must be 4^{len(sigma)} X^r_sigma
    2^{len(tau)} sum_nu K_{nu,d} chi^nu_tau at each rho = sigma + 2 tau where
    that is nonzero, and nothing else: integer sums over the Green and
    character rows, with K from Young's rule (``_kostka_column``, one
    checked column per lam), so this checks the characters against it."""
    for lam in generate_partitions(n):
        r, d = phi(lam)
        sigmas, taus = generate_partitions(weight(r), "odd"), generate_partitions(weight(d))
        (x_row,) = _green_rows(sigmas, [r])
        column = _kostka_column(d)
        ks = [column.get(nu, 0) for nu in taus]
        h_row = [sum(map(mul, ks, col)) for col in zip(*_chi_rows(taus, taus))]
        want = {
            psi_inverse(sigma, tau): (x << 2 * len(sigma)) * (h << len(tau))
            for sigma, x in zip(sigmas, x_row)
            for tau, h in zip(taus, h_row)
            if x and h
        }
        # z_rho [p_rho]q'_lam = want_rho, cross-multiplied by q'_lam's denominator
        f = q_prime(lam)
        got = {k: c * z_factor(k) for k, c in f._num.items()}
        if got != {k: c * f._den for k, c in want.items()}:
            return False, {"label": partition_str(lam)}
    return True, {"size": len(generate_partitions(n))}


@cache
def _core_free_quotients(m: int) -> tuple:
    """The triples (xi, sign(xi), counts) over xi |- 2m with empty 2-core and
    2-quotient (xi_0, xi_1), where counts holds the nonzero
    Littlewood-Richardson numbers {d: c^d_{xi_0,xi_1}} of S_{xi_0} S_{xi_1}."""
    out = []
    for xi in generate_partitions(2 * m):
        tq = two_core_quotient(xi)
        if tq.core2 == ():
            out.append((xi, tq.sign, _lr_counts(tq.q0, tq.q1)))
    return tuple(out)


def _square_expansion(d: Partition) -> tuple[tuple[Partition, int], ...]:
    """The nonzero terms (xi, sign(xi) c^d_{xi_0,xi_1}) of S_d(x^2) over S_xi,
    xi |- 2|d| with empty 2-core and 2-quotient (xi_0, xi_1): Littlewood's
    signed 2-quotient rule (Macdonald, ch. I).  Only the ``two-sign-oracle``
    claim reads it, and checks it against the characters of degree 2|d|."""
    return tuple(
        (xi, sign * counts[d]) for xi, sign, counts in _core_free_quotients(weight(d)) if d in counts
    )


def _claim_two_sign_oracle(n: int):
    """Schur functions at squared variables expand over partitions of twice
    the degree with empty 2-core, signed by the normalized 2-sign and
    weighted by Littlewood-Richardson coefficients of the 2-quotient: the
    expansion ``_square_expansion``, which nothing else reads, compared as
    one integer Schur column over every partition of 2n, <S_mu(x^2), S_xi>
    = sum_rho chi^mu_rho chi^xi_{2 rho} / z_rho, every mu in one
    ``_pairing`` with power 1."""
    fact, rhos, xis = math.factorial(n), generate_partitions(n), generate_partitions(2 * n)
    doubled = _chi_rows([tuple(2 * a for a in rho) for rho in rhos], xis)  # [xi][rho]
    products = _pairing(n, _chi_rows(rhos, rhos), rhos, list(zip(*doubled)), 1)
    for mu, row in zip(rhos, products):
        terms, label = dict(_square_expansion(mu)), partition_str(mu)
        got = [_exact(s, fact, "S_{}(x^2) at xi={}", label, xi) for xi, s in zip(xis, row)]
        if got != [terms.get(xi, 0) for xi in xis]:
            return False, {"label": label}
    return True, {"size": len(generate_partitions(n)), "support": len(_core_free_quotients(n))}


def _claim_golden_matrices(n: int):
    """The emitted matrices in reference order agree byte-for-byte with the
    stored fixtures (degrees with a stored layout only)."""
    if paper_layout(n) is None:
        return True, {"note": "no stored layout at this degree"}
    diff = compare_matrices(golden_matrix(f"A{n}"), paper_order(build_A(n), n))
    if diff:
        diff["matrix"] = f"A{n}"
        return False, diff
    diff = compare_matrices(golden_matrix(f"AtA{n}"), paper_order(cartan_like(n), n))
    if diff:
        diff["matrix"] = f"AtA{n}"
        return False, diff
    return True, {"matrices": [f"A{n}", f"AtA{n}"]}


# --------------------------------------------------------------------------
# Registry and drivers
# --------------------------------------------------------------------------

# One row per claim: its id, its check and its cap, the largest degree the
# sweep reaches by default (a desk-scale time budget).
_CLAIM_TABLE = (
    ("prop-3.1", _claim_length_statistics, 14),
    ("prop-4.1", _claim_cauchy_kernel, 8),
    ("cor-4.2", _claim_duality_gram, 8),
    ("thm-4.3", _claim_transition_integral, 10),
    ("thm-4.5-via-formula", _claim_elementary_divisors, 10),
    ("thm-4.6", _claim_determinant, 10),
    ("thm-4.8", _claim_block_determinants, 8),
    ("prop-4.9", _claim_cartan_entries, 8),
    ("frobenius", _claim_frobenius_formula, 8),
    ("eta-correspondence", _claim_core_free_correspondence, 10),
    ("stembridge-structure", _claim_stembridge_structure, 10),
    ("qprime-kostka", _claim_qprime_kostka, 8),
    ("two-sign-oracle", _claim_two_sign_oracle, 5),
    ("golden-matrices", _claim_golden_matrices, 4),
)

_CLAIMS = {cid: claim for cid, claim, _ in _CLAIM_TABLE}
CLAIM_CAPS: dict[str, int] = {cid: cap for cid, _, cap in _CLAIM_TABLE}


def claim_ids() -> tuple[str, ...]:
    """All registered claim identifiers, sorted."""
    return tuple(sorted(_CLAIMS))


def _claim(claim_id: str):
    """The claim registered as ``claim_id``; ValueError if there is none."""
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; known: {', '.join(claim_ids())}")
    return _CLAIMS[claim_id]


def check(claim_id: str, n: int) -> VerificationReport:
    """Run one claim at one degree.

    Unknown claim identifiers raise ValueError.  Any other exception inside
    a claim is converted into a failing report carrying the error text, but
    MemoryError propagates: running out of memory says nothing about the
    identity.
    """
    claim = _claim(claim_id)
    if n < 1:
        raise ValueError("check needs n >= 1")
    start = time.perf_counter()
    try:
        ok, details = claim(n)
    except MemoryError:
        raise
    except Exception as exc:  # a crash is a failing check, not a crash of the sweep
        ok, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        claim_id=claim_id,
        n=n,
        status="pass" if ok else "fail",
        details=details,
        elapsed_ms=elapsed,
    )


def check_all(max_n: int = 8, claims=None, jobs: int = 1) -> list[VerificationReport]:
    """Sweep claims over degrees 1..min(max_n, cap) in (claim, n) order,
    with each claim's cap read from :data:`CLAIM_CAPS`.

    ``claims`` restricts the sweep to the given identifiers; ``jobs`` > 1 spreads
    the checks over at most ``min(jobs, checks, os.cpu_count())`` worker
    processes.  Raises ValueError when ``jobs`` < 1 or when the sweep would
    run no check at all, since an empty sweep verifies nothing.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if claims is None:
        selected = list(claim_ids())
    else:
        selected = sorted(set(claims))
        for cid in selected:
            _claim(cid)
    tasks = [(cid, n) for cid in selected for n in range(1, min(max_n, CLAIM_CAPS[cid]) + 1)]
    if not tasks:
        raise ValueError(
            f"empty sweep: {len(selected)} claims at max_n={max_n} select no check"
        )
    ids, degrees = zip(*tasks)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(check, ids, degrees))
    return list(map(check, ids, degrees))
