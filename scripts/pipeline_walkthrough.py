#!/usr/bin/env python3
"""Print every stage of the degree computation for a single curve degree.

Walks the whole pipeline in order: Poincare data upstairs, the two
pushforward characters, the twisted Chern series, the virtual quotient,
the secant class by all three routes (the Segre quotient
c_t(source) / c_t(target), the banded determinant recurrence and its closed
form), and the final pairing.
"""

import argparse

from trisecant import (
    METHODS,
    berzolari,
    bundle_characters,
    chern_coefficients,
    degree_pairing,
    poincare_character,
    poincare_first_chern,
    porteous_class,
    secant3_degree,
)
from trisecant._graded import _ambient
from trisecant.porteous import _chern_triples, _twisted_coefficients
from trisecant.ring import AmbientClass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=8, help="curve degree, at least 8")
    args = parser.parse_args()
    d = args.d
    if d < 8:
        parser.error(f"--d must be at least 8, got {d}")

    print(f"== degree d = {d}, matrix size n = {d - 5} ==")
    print()
    print("upstairs on (curve) x Pic^3:")
    print(f"  c1(Poincare)       = {poincare_first_chern()}")
    print(f"  ch(Poincare)       = {poincare_character()}")
    print()
    sections, residual = bundle_characters(d)
    print("pushforward characters on the Picard surface:")
    print(f"  ch(sections)  rank {sections.c0}:  {sections}")
    print(f"  ch(residual)  rank {residual.c0}:  {residual}")
    print()
    print("twisted total Chern series on Pic^3 x P^(d-2):")
    # The engine builds neither bundle as a series; read their first coefficients
    # (the target's stop at t^2).
    target = [*_chern_triples(sections, dual=True), (0, 0, 0)]
    for k, triple in enumerate(target):
        print(f"  c_t(target)[t^{k}] = {_ambient(d, k, triple)}")
    source = _twisted_coefficients(_chern_triples(residual), int(residual.c0), range(4))
    for k, triple in enumerate(source):
        print(f"  c_t(source)[t^{k}] = {_ambient(d, k, triple)}")
    print()
    print("virtual quotient coefficients c_i = c_t(target - source)[t^i]:")
    for i, value in enumerate(chern_coefficients(d), start=1):
        print(f"  c_{i} = {value}")
    print()
    print("secant-variety class (Segre quotient and banded determinant):")
    for method in METHODS:
        print(f"  {method:<11} -> {porteous_class(d, method=method)}")
    print()
    paired = degree_pairing(porteous_class(d) * AmbientClass(d, {(0, 5): 1}))
    print(f"pairing against h^5 and the theta square: {paired}")
    print(f"secant3_degree({d}) = {secant3_degree(d)}")
    print(f"classical count     = {berzolari(d)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
