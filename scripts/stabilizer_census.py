#!/usr/bin/env python3
"""Print the stabilizer censuses for the two local-model families.

Covers the rank-stratified homomorphism family and the extension-pair
family, the exhaustive mod-3 check that the quadratic zero locus matches
isotropy of the image, and the seeded rational sample run.
"""

import argparse
import sys

from towercalc import (
    DEFAULT_SAMPLE_SEED,
    isotropy_equivalence_f3,
    omega_census,
    order_two_relations,
    rational_isotropy_samples,
    sigma_census,
)


def _print_counts(title, counts):
    print(title)
    for key in sorted(counts):
        print("  %-24s %d" % (key, counts[key]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--samples", type=int, default=1000, help="rational sample count"
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SAMPLE_SEED, help="sample seed"
    )
    args = parser.parse_args(argv)

    omega = omega_census()
    print("homomorphism family: %d members, all classified: %s" % (
        omega["total"], omega["all_match"]))
    _print_counts("  by stabilizer class:", omega["counts"])
    _print_counts("  by rank stratum:", omega["strata"])
    print()

    sigma = sigma_census()
    print("extension-pair family: %d members, all classified: %s" % (
        sigma["total"], sigma["all_match"]))
    _print_counts("  by stabilizer class:", sigma["counts"])
    print("  quadratic zero locus: %d members" % sigma["zero_locus"])
    relations = order_two_relations()
    relations_hold = all(
        relations[key]
        for key in ("scale_ok", "swap_ok", "swap_involution", "scale_round_trip")
    )
    print("  order-two relations hold: %s" % relations_hold)
    print()

    eq = isotropy_equivalence_f3()
    print("mod-3 enumeration: %d maps, %d isotropic, agreement: %s" % (
        eq["homs"], eq["isotropic"], eq["all_agree"]))

    samples = rational_isotropy_samples(args.samples, seed=args.seed)
    print("rational samples: %d drawn (seed %d), %d on the zero locus, agreement: %s" % (
        samples["samples"], args.seed, samples["zero_locus_hits"],
        samples["all_agree"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
