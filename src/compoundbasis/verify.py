"""Mechanical verification harness.

Every registered claim is a pure function of a degree ``n`` that either
confirms a family of identities exhaustively at that degree or returns a
counterexample payload naming the offending labels.  ``check`` runs one
claim at one degree and wraps the outcome in a :class:`VerificationReport`;
``check_all`` sweeps every registered claim over a degree range, honouring
per-claim degree caps that keep the sweep inside a desk-scale time budget.

The caps in :data:`CLAIM_CAPS` are configuration, not mathematics: raising
them re-runs the same checks at larger degrees, at a super-polynomial cost
in time.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .golden import golden_matrix, paper_layout
from .partitions import (
    dominance_leq,
    generate_partitions,
    glaisher,
    h_abacus_decompose,
    partition_str,
    phi,
    phi_inverse,
    psi,
    two_core_quotient,
    weight,
    z_factor,
)
from .symfunc import (
    SymFunc,
    V_from_pair,
    W_from_pair,
    _mul_into,
    character,
    green_function,
    inner,
    kostka,
    littlewood_richardson,
    p_monomial,
    q_prime,
    schur,
    schur_P,
    schur_Q,
    sub_double,
    sub_square,
    reduce2,
)
from .transition import (
    BlockStructureError,
    LabeledIntMatrix,
    bareiss_solve,
    blocks,
    build_A,
    build_A_combinatorial,
    build_Gamma,
    canonical_pairs,
    cartan_like,
    gram_G,
    k_value,
    label_str,
    matrix_det,
    pair_class,
    smith_normal_form,
)

__all__ = [
    "VerificationReport",
    "CLAIM_CAPS",
    "claim_ids",
    "check",
    "check_all",
    "compare_matrices",
    "reports_to_json_lines",
    "all_passed",
]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
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
        return {
            "claim_id": self.claim_id,
            "n": self.n,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict())


def reports_to_json_lines(reports) -> str:
    """One JSON document per line, in the given order."""
    return "\n".join(r.to_json_line() for r in reports)


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def compare_matrices(expected: LabeledIntMatrix, actual: LabeledIntMatrix) -> dict | None:
    """None when equal; otherwise a payload naming the first difference.

    Entry differences name the exact row and column labels.
    """
    if expected.row_labels != actual.row_labels:
        return {
            "mismatch": "row_labels",
            "expected": [label_str(l) for l in expected.row_labels],
            "actual": [label_str(l) for l in actual.row_labels],
        }
    if expected.col_labels != actual.col_labels:
        return {
            "mismatch": "col_labels",
            "expected": [label_str(l) for l in expected.col_labels],
            "actual": [label_str(l) for l in actual.col_labels],
        }
    for i, row_label in enumerate(expected.row_labels):
        for j, col_label in enumerate(expected.col_labels):
            e = expected.entries[i][j]
            a = actual.entries[i][j]
            if e != a:
                return {
                    "mismatch": "entry",
                    "row": label_str(row_label),
                    "col": label_str(col_label),
                    "expected": e,
                    "actual": a,
                }
    return None


def _first_tensor_diff(expected: dict, actual: dict) -> dict:
    for k in sorted(set(expected) | set(actual)):
        e = expected.get(k, Fraction(0))
        a = actual.get(k, Fraction(0))
        if e != a:
            return {
                "key_x": partition_str(k[0]),
                "key_y": partition_str(k[1]),
                "expected": str(e),
                "actual": str(a),
            }
    raise AssertionError("no difference found")


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
    power-sum kernel with coefficient 2^len / z."""
    kernel = {
        (rho, rho): Fraction(1 << len(rho), z_factor(rho))
        for rho in generate_partitions(n)
    }
    compound: dict = {}
    schur_side: dict = {}

    def tensor(kx, ky):
        return (kx, ky)

    for lam in generate_partitions(n):
        r, d = phi(lam)
        _mul_into(compound, W_from_pair(r, d).items(), V_from_pair(r, d).items(), tensor, 1)
        s = schur(lam)
        _mul_into(schur_side, sub_double(s).items(), s.items(), tensor, 1)
    for name, got in (("compound-by-dual", compound), ("doubled-schur-by-schur", schur_side)):
        if got != kernel:
            payload = _first_tensor_diff(kernel, got)
            payload["expansion"] = name
            return False, payload
    return True, {"diagonal_terms": len(kernel)}


def _claim_duality_gram(n: int):
    """The compound family and its dual family pair to the identity matrix
    under the twisted inner product."""
    pairs = canonical_pairs(n)
    ws = [W_from_pair(r, d) for (r, d) in pairs]
    vs = [V_from_pair(r, d) for (r, d) in pairs]
    for i, w in enumerate(ws):
        for j, v in enumerate(vs):
            got = inner(w, v, "minus_one")
            want = Fraction(1 if i == j else 0)
            if got != want:
                return False, {
                    "row": label_str(pairs[i]),
                    "col": label_str(pairs[j]),
                    "expected": str(want),
                    "actual": str(got),
                }
    return True, {"size": len(pairs)}


def _claim_transition_integral(n: int):
    """The transition matrix is integral and exact: the integer entries
    reproduce every doubled Schur function, and (n <= 8) the independent
    closed combinatorial formula builds the same matrix."""
    mat = build_A(n)
    for i, lam in enumerate(mat.row_labels):
        acc = SymFunc()
        for j, pair in enumerate(mat.col_labels):
            c = mat.entries[i][j]
            if c:
                acc = acc + W_from_pair(*pair) * c
        if acc != sub_double(schur(lam)):
            return False, {
                "row": partition_str(lam),
                "detail": "integer expansion does not reproduce the doubled Schur function",
            }
    if n <= 8:
        diff = compare_matrices(mat, build_A_combinatorial(n))
        if diff:
            diff["detail"] = "solver route and closed-formula route disagree"
            return False, diff
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
    agreeing closed sums."""
    k = k_value(n)
    det = matrix_det(build_A(n))
    if abs(det) != 1 << k:
        return False, {"k_n": k, "expected_abs": str(1 << k), "actual_det": str(det)}
    return True, {"k_n": k}


def _claim_block_determinants(n: int):
    """The Gram matrix of the transition matrix is block diagonal over the
    classes (n0, n1) and each block determinant is the predicted power of 2."""
    try:
        blks = blocks(n)
    except BlockStructureError as exc:
        return False, {
            "row": label_str(exc.row_label),
            "col": label_str(exc.col_label),
            "expected": 0,
            "actual": exc.value,
        }
    summary = []
    for cls in sorted(blks, reverse=True):
        block = blks[cls]
        exponent = sum(
            len(glaisher(r)) + len(d) - len(r) for (r, d) in block.row_labels
        )
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
    """Every entry of the Gram matrix of the transition matrix factors as
    <P, P> times <S(x^2), S(x^2)> of the label components."""
    ata = cartan_like(n)
    pairs = ata.row_labels
    p_part: dict = {}
    s_part: dict = {}
    for (r, d) in pairs:
        if r not in p_part:
            p_part[r] = schur_P(r)
        if d not in s_part:
            s_part[d] = sub_square(schur(d))
    for i, (r1, d1) in enumerate(pairs):
        for j, (r2, d2) in enumerate(pairs):
            want = inner(p_part[r1], p_part[r2]) * inner(s_part[d1], s_part[d2])
            if want != ata.entries[i][j]:
                return False, {
                    "row": label_str(pairs[i]),
                    "col": label_str(pairs[j]),
                    "expected": str(want),
                    "actual": ata.entries[i][j],
                }
    return True, {"size": len(pairs)}


def _claim_frobenius_formula(n: int):
    """Every power-sum monomial of degree n expands over exactly one class
    (n0, n1) of compound elements, with coefficients built from one spin
    character value and one linear character value."""
    by_class: dict[tuple[int, int], list] = {}
    for pair in canonical_pairs(n):
        by_class.setdefault(pair_class(pair), []).append(pair)
    checked = 0
    for (n0, n1), prs in sorted(by_class.items(), reverse=True):
        ws = {pair: W_from_pair(*pair) for pair in prs}
        for sigma in generate_partitions(n0, "odd"):
            for rho in generate_partitions(n1):
                key = tuple(sorted(sigma + tuple(2 * a for a in rho), reverse=True))
                rhs = SymFunc()
                for (r, d) in prs:
                    c = Fraction(
                        green_function(r, sigma) * character(d, rho), 1 << len(r)
                    )
                    if c:
                        rhs = rhs + ws[(r, d)] * c
                if rhs != p_monomial(key):
                    return False, {
                        "class": [n0, n1],
                        "sigma": partition_str(sigma),
                        "rho": partition_str(rho),
                        "key": partition_str(key),
                    }
                checked += 1
    return True, {"monomials": checked}


def _claim_core_free_correspondence(n: int):
    """Strict partitions of 2n with empty core and zero charge correspond
    one-to-one, via their two runner readings, with pairs of a strict
    partition of n0 and a partition of n1 where n0 + 2*n1 = n."""
    image: dict = {}
    for lam in generate_partitions(2 * n, "strict"):
        dec = h_abacus_decompose(lam)
        if dec.core == () and dec.charge == 0:
            image[lam] = (dec.shifted0, dec.quotient1)
    target = set()
    for n1 in range(n // 2 + 1):
        n0 = n - 2 * n1
        for mu in generate_partitions(n0, "strict"):
            for nu in generate_partitions(n1):
                target.add((mu, nu))
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
    """The coefficients expanding each even-free doubled Schur function over
    the Q family, solved exactly by ``bareiss_solve``, are nonnegative
    integers, vanish below dominance, are 1 on the strict diagonal, and equal
    ``build_Gamma``: the strict-label columns of the transition matrix."""
    rows = generate_partitions(n)
    stricts = generate_partitions(n, "strict")
    keys = generate_partitions(n, "odd")
    size = len(keys)
    if size != len(stricts):
        return False, {"detail": "odd and strict label counts differ"}

    def coords(f: SymFunc) -> list[int] | None:
        out = [f.coeff(k) * z_factor(k) for k in keys]
        if any(v.denominator != 1 for v in out):
            return None
        return [v.numerator for v in out]

    q_cols = []
    for mu in stricts:
        col = coords(schur_Q(mu))
        if col is None:
            return False, {"col": partition_str(mu), "detail": "non-integral scaled coordinates"}
        q_cols.append(col)
    t_cols = []
    for lam in rows:
        col = coords(sub_double(reduce2(schur(lam))))
        if col is None:
            return False, {"row": partition_str(lam), "detail": "non-integral scaled coordinates"}
        t_cols.append(col)
    mat = [[q_cols[j][i] for j in range(size)] for i in range(size)]
    rhs = [[t_cols[j][i] for j in range(len(rows))] for i in range(size)]
    x_cols = bareiss_solve(mat, rhs)

    gamma_rows: list[list[int]] = []
    for i, lam in enumerate(rows):
        row: list[int] = []
        for j, mu in enumerate(stricts):
            val = x_cols[i][j]
            if val.denominator != 1 or val < 0:
                return False, {
                    "row": partition_str(lam),
                    "col": partition_str(mu),
                    "actual": str(val),
                    "detail": "coefficient is not a nonnegative integer",
                }
            val = val.numerator
            if val and not dominance_leq(lam, mu):
                return False, {
                    "row": partition_str(lam),
                    "col": partition_str(mu),
                    "actual": val,
                    "detail": "nonzero coefficient below dominance",
                }
            if lam == mu and val != 1:
                return False, {
                    "row": partition_str(lam),
                    "col": partition_str(mu),
                    "expected": 1,
                    "actual": val,
                    "detail": "strict diagonal is not 1",
                }
            row.append(val)
        gamma_rows.append(row)
    solved = LabeledIntMatrix(rows, stricts, tuple(tuple(r) for r in gamma_rows))

    diff = compare_matrices(build_Gamma(n), solved)
    if diff:
        diff["detail"] = "solve route and pairing route disagree"
        return False, diff
    return True, {"rows": len(rows), "cols": len(stricts)}


def _claim_qprime_kostka(n: int):
    """Each Q'-function expands over compound-type products with Kostka
    coefficients, and reduces to the doubled Q function on strict labels."""
    for lam in generate_partitions(n):
        r, d = phi(lam)
        doubled_q = sub_double(schur_Q(r))
        rhs = SymFunc()
        for nu in generate_partitions(weight(d)):
            k = kostka(nu, d)
            if k:
                rhs = rhs + doubled_q * sub_square(schur(nu)) * k
        if q_prime(lam) != rhs:
            return False, {"label": partition_str(lam)}
    for mu in generate_partitions(n, "strict"):
        if q_prime(phi_inverse(mu, ())) != sub_double(schur_Q(mu)):
            return False, {"label": partition_str(mu), "detail": "strict anchor"}
    return True, {"size": len(generate_partitions(n))}


def _claim_two_sign_oracle(n: int):
    """Schur functions at squared variables expand over partitions of twice
    the degree with empty 2-core, signed by the normalized 2-sign and
    weighted by Littlewood-Richardson coefficients of the 2-quotient."""
    doubles = generate_partitions(2 * n)
    quotients = []
    for xi in doubles:
        tq = two_core_quotient(xi)
        if tq.core2 == ():
            quotients.append((xi, tq))
    for mu in generate_partitions(n):
        lhs = sub_square(schur(mu))
        rhs = SymFunc()
        for xi, tq in quotients:
            c = littlewood_richardson(tq.q0, tq.q1, mu)
            if c:
                rhs = rhs + schur(xi) * (tq.sign * c)
        if lhs != rhs:
            return False, {"label": partition_str(mu)}
    return True, {"size": len(generate_partitions(n)), "support": len(quotients)}


def _claim_golden_matrices(n: int):
    """The emitted matrices in reference order agree byte-for-byte with the
    stored fixtures (degrees with a stored layout only)."""
    if paper_layout(n) is None:
        return True, {"note": "no stored layout at this degree"}
    diff = compare_matrices(golden_matrix(f"A{n}"), build_A(n, order="paper"))
    if diff:
        diff["matrix"] = f"A{n}"
        return False, diff
    diff = compare_matrices(golden_matrix(f"AtA{n}"), cartan_like(n, order="paper"))
    if diff:
        diff["matrix"] = f"AtA{n}"
        return False, diff
    return True, {"matrices": [f"A{n}", f"AtA{n}"]}


# --------------------------------------------------------------------------
# Registry and drivers
# --------------------------------------------------------------------------

_CLAIMS = {
    "prop-3.1": _claim_length_statistics,
    "prop-4.1": _claim_cauchy_kernel,
    "cor-4.2": _claim_duality_gram,
    "thm-4.3": _claim_transition_integral,
    "thm-4.5-via-formula": _claim_elementary_divisors,
    "thm-4.6": _claim_determinant,
    "thm-4.8": _claim_block_determinants,
    "prop-4.9": _claim_cartan_entries,
    "frobenius": _claim_frobenius_formula,
    "eta-correspondence": _claim_core_free_correspondence,
    "stembridge-structure": _claim_stembridge_structure,
    "qprime-kostka": _claim_qprime_kostka,
    "two-sign-oracle": _claim_two_sign_oracle,
    "golden-matrices": _claim_golden_matrices,
}

# Largest degree each claim is swept to by default: a desk-scale time budget.
CLAIM_CAPS: dict[str, int] = {
    "prop-3.1": 14,
    "prop-4.1": 8,
    "cor-4.2": 8,
    "thm-4.3": 10,
    "thm-4.5-via-formula": 10,
    "thm-4.6": 10,
    "thm-4.8": 8,
    "prop-4.9": 8,
    "frobenius": 8,
    "eta-correspondence": 10,
    "stembridge-structure": 10,
    "qprime-kostka": 8,
    "two-sign-oracle": 5,
    "golden-matrices": 4,
}


def claim_ids() -> tuple[str, ...]:
    """All registered claim identifiers, sorted."""
    return tuple(sorted(_CLAIMS))


def check(claim_id: str, n: int) -> VerificationReport:
    """Run one claim at one degree.

    Unknown claim identifiers raise ValueError.  Any exception inside a
    claim is converted into a failing report carrying the error text.
    """
    if claim_id not in _CLAIMS:
        raise ValueError(
            f"unknown claim {claim_id!r}; known: {', '.join(claim_ids())}"
        )
    if n < 1:
        raise ValueError("check needs n >= 1")
    start = time.perf_counter()
    try:
        ok, details = _CLAIMS[claim_id](n)
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


def _check_task(task: tuple[str, int]) -> VerificationReport:
    return check(*task)


def check_all(
    max_n: int = 8,
    claims=None,
    jobs: int = 1,
    caps: dict | None = None,
) -> list[VerificationReport]:
    """Sweep claims over degrees 1..min(max_n, cap), sorted by (claim, n).

    ``claims`` restricts the sweep to the given identifiers; ``caps``
    overrides individual entries of :data:`CLAIM_CAPS`; ``jobs`` > 1 spreads
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
            if cid not in _CLAIMS:
                raise ValueError(
                    f"unknown claim {cid!r}; known: {', '.join(claim_ids())}"
                )
    effective = dict(CLAIM_CAPS)
    if caps:
        effective.update(caps)
    tasks = [
        (cid, n)
        for cid in selected
        for n in range(1, min(max_n, effective.get(cid, max_n)) + 1)
    ]
    if not tasks:
        raise ValueError(
            f"empty sweep: {len(selected)} claims at max_n={max_n} select no check"
        )
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_check_task, tasks))
    else:
        reports = [_check_task(t) for t in tasks]
    reports.sort(key=lambda r: (r.claim_id, r.n))
    return reports
