#!/usr/bin/env python3
"""Explore phase-level behaviour of individual benchmarks (section 4.2).

Reproduces the paper's per-benchmark observations at small scale:

* astar splits across two distinct prominent phase behaviours;
* the BioPerf and SPEC CPU2006 versions of hmmer share a cluster while
  BioPerf's keeps a large phase of its own;
* sjeng / lbm are near-homogeneous.

Also renders the Figure 2/3 kiviat pages as SVG files.

Run:
    python examples/explore_phases.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import AnalysisConfig, all_benchmarks, build_dataset, run_characterization
from repro.analysis import (
    benchmark_profile,
    homogeneity,
    shared_clusters,
)
from repro.mica import FEATURE_INDEX
from repro.viz import ascii_kiviat, build_kiviat_scale, render_prominent_phase_pages


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("phase_report")
    config = AnalysisConfig.small()
    print("characterizing all 77 benchmarks (about half a minute)...")
    dataset = build_dataset(all_benchmarks(), config)
    result = run_characterization(dataset, config)

    print("\n== astar's phase split ==")
    profile = benchmark_profile(result, "SPECint2006", "astar")
    for cluster, fraction in profile.cluster_fractions[:4]:
        print(f"  cluster {cluster}: {100 * fraction:.1f}% of astar")

    print("\n== the two hmmer versions ==")
    shared = shared_clusters(result, ("BioPerf", "hmmer"), ("SPECint2006", "hmmer"))
    print(f"  shared clusters: {shared}")
    bio = benchmark_profile(result, "BioPerf", "hmmer")
    own = [c for c, f in bio.cluster_fractions if c not in shared and f > 0.1]
    print(f"  BioPerf-hmmer keeps its own major clusters: {own}")

    print("\n== homogeneity (fraction in the heaviest cluster) ==")
    for suite, name in (
        ("SPECint2006", "sjeng"),
        ("SPECfp2006", "lbm"),
        ("SPECfp2000", "sixtrack"),
        ("SPECint2006", "astar"),
    ):
        print(f"  {suite}/{name}: {100 * homogeneity(result, suite, name):.1f}%")

    print("\n== heaviest prominent phase, as a kiviat (text form) ==")
    scale = build_kiviat_scale(result)
    idx = [FEATURE_INDEX[n] for n in result.key_characteristics]
    values = result.prominent_matrix[0][idx]
    print("  weight: %.2f%%" % (100 * result.prominent.weights[0]))
    for line in ascii_kiviat(np.asarray(values), scale):
        print("  " + line)

    pages = render_prominent_phase_pages(result, output_dir)
    print(f"\nwrote {len(pages)} SVG pages (Figures 2-3 analog) to {output_dir}/")


if __name__ == "__main__":
    main()
