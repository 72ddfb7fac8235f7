#!/usr/bin/env python3
"""The symmetric-function toolkit: bases, pairings, and substitutions.

Everything is exact rational arithmetic over the power-sum basis.

Run with:  python3 demos/02_symmetric_functions.py
"""

from compoundbasis import (
    V_basis,
    V_from_pair,
    W_basis,
    as_partition,
    W_from_pair,
    canonical_pairs,
    format_symfunc,
    inner,
    partition_str,
    q_prime,
    schur,
    schur_P,
    schur_Q,
    sub_double,
    sub_square,
)


def main():
    print("1. Classical and shifted bases printed in power sums")
    lam = as_partition((2, 1))
    print(f"  S_{partition_str(lam)}  =", format_symfunc(schur(lam)))
    print(f"  Q_{partition_str(lam)}  =", format_symfunc(schur_Q(lam)))
    print(f"  P_{partition_str(lam)}  =", format_symfunc(schur_P(lam)))
    print()

    print("2. The compound basis and its dual partner")
    lam = as_partition((2, 1))
    print(f"  W_{partition_str(lam)}  =", format_symfunc(W_basis(lam)))
    print(f"  V_{partition_str(lam)}  =", format_symfunc(V_basis(lam)))
    print()

    print("3. Orthogonality under the signed pairing (weight 3 classes)")

    pairs3 = canonical_pairs(3)
    for a in pairs3:
        row = [
            str(inner(W_from_pair(*a), V_from_pair(*b), "minus_one"))
            for b in pairs3
        ]
        la = f"({partition_str(a[0])},{partition_str(a[1])})"
        print(f"  <W_{la}, V_.>  ->  {row}")
    print()

    print("4. Substitutions as ring maps on power sums")
    s = schur(as_partition((2,)))
    print("  S_(2)          =", format_symfunc(s))
    print("  doubled set    =", format_symfunc(sub_double(s)))
    print("  squared vars   =", format_symfunc(sub_square(s)))
    print()

    print("5. Modified Q-functions in a parameter alphabet")
    mu = as_partition((2, 2))
    print(f"  Qprime_{partition_str(mu)} =", format_symfunc(q_prime(mu), vars="t-q"))


if __name__ == "__main__":
    main()
