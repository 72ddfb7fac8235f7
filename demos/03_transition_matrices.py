#!/usr/bin/env python3
"""Transition matrices between the Schur and compound bases.

Builds the integer change-of-basis matrix, shows its determinant and
elementary-divisor structure, and the block decomposition of the Gram
matrix of the compound basis.

Run with:  python3 demos/03_transition_matrices.py
"""

from compoundbasis import (
    blocks,
    build_A,
    cartan_like,
    gram_G,
    k_value,
    label_str,
    matrix_det,
    matrix_to_latex,
    paper_order,
    smith_normal_form,
)


def print_matrix(m):
    col_strs = [label_str(lbl) for lbl in m.col_labels]
    row_strs = [label_str(lbl) for lbl in m.row_labels]
    width = max(
        [len(str(e)) for row in m.entries for e in row]
        + [len(s) for s in col_strs]
    )
    rw = max(len(s) for s in row_strs)
    print("  " + " " * rw + " " + " ".join(f"{s:>{width}s}" for s in col_strs))
    for lbl, row in zip(row_strs, m.entries):
        cells = " ".join(f"{e:>{width}d}" for e in row)
        print(f"  {lbl:>{rw}s} {cells}")


def main():
    print("1. The change-of-basis matrix at weight 4 (reference ordering)")
    a4 = paper_order(build_A(4), 4)
    print_matrix(a4)
    print()

    print("2. Its determinant is a power of 2 at every weight")
    for n in range(1, 9):
        det = matrix_det(build_A(n))
        print(f"  n={n}:  det = {det:>6d}   |det| = 2^{k_value(n)}")
    print()

    print("3. Elementary divisors of the Gram matrix of one component basis")
    for n in range(2, 7):
        g = gram_G(n)
        print(f"  n={n}:  SNF diagonal = {smith_normal_form(g)}")
    print()

    print("4. The pairing Gram matrix splits into integer blocks by class")
    c4 = cartan_like(4)
    print_matrix(c4)
    print()
    for cls, block in sorted(blocks(4).items(), reverse=True):
        print(f"  class {cls}: det = {matrix_det(block)}")
        print_matrix(block)
        print()

    print("5. LaTeX output for typeset notes")
    print(matrix_to_latex(paper_order(build_A(3), 3)))


if __name__ == "__main__":
    main()
