"""The 69 microarchitecture-independent characteristics (Table 1 analog).

This module is the single source of truth for feature names, ordering,
category membership, and the window, bucket and history-length
constants the names are built from; the fused pass
(:mod:`repro.mica.fused`) writes each named column into the canonical
69-element vector consumed by the statistics pipeline.

See DESIGN.md section 4 for how the per-category counts were chosen
(the paper's Table 1 is partially illegible in the available text; the
total of 69 is unambiguous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

CATEGORY_MIX = "instruction mix"
CATEGORY_ILP = "ILP"
CATEGORY_REG = "register traffic"
CATEGORY_FOOT = "memory footprint"
CATEGORY_STRIDE = "data stream strides"
CATEGORY_BRANCH = "branch predictability"

CATEGORIES = (
    CATEGORY_MIX,
    CATEGORY_ILP,
    CATEGORY_REG,
    CATEGORY_FOOT,
    CATEGORY_STRIDE,
    CATEGORY_BRANCH,
)

#: ILP instruction-window sizes, as in the paper.
WINDOW_SIZES = (32, 64, 128, 256)

#: Cumulative register dependency-distance buckets (instructions).
DEP_DISTANCE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: Cumulative ``|stride|`` buckets (bytes) for global and local strides.
GLOBAL_BUCKETS = (0, 64, 4096, 262144)
LOCAL_BUCKETS = (0, 8, 64, 512, 4096)

#: PPM predictor organizations (history kind x table kind), in
#: context-key order.
ORGANIZATIONS = ("gag", "pag", "gas", "pas")

#: Maximum PPM history lengths reported, as in the paper.
REPORTED_LENGTHS = (4, 8, 12)

#: Context lengths tracked per PPM predictor, longest first.  A strict
#: PPM tracks every length 0..12; tracking this subset keeps the table
#: state tractable while preserving the short/medium/long history
#: structure that separates workloads.
TRACKED_LENGTHS = (12, 8, 4, 2, 1, 0)


@dataclass(frozen=True)
class Feature:
    """One microarchitecture-independent characteristic."""

    name: str
    category: str
    description: str


def _mix(name: str, desc: str) -> Feature:
    return Feature(name, CATEGORY_MIX, desc)


def _make_features() -> List[Feature]:
    features: List[Feature] = []
    # --- instruction mix (20) ---------------------------------------
    features += [
        _mix("mix_mem_read", "fraction memory reads (loads)"),
        _mix("mix_mem_write", "fraction memory writes (stores)"),
        _mix("mix_mem", "fraction memory operations"),
        _mix("mix_branch", "fraction conditional branches"),
        _mix("mix_call", "fraction calls"),
        _mix("mix_int_add", "fraction integer add/sub"),
        _mix("mix_int_mul", "fraction integer multiplies"),
        _mix("mix_int_div", "fraction integer divides"),
        _mix("mix_shift", "fraction shifts"),
        _mix("mix_logic", "fraction logical operations"),
        _mix("mix_int_arith", "fraction integer arithmetic (all)"),
        _mix("mix_fp_add", "fraction FP add/sub"),
        _mix("mix_fp_mul", "fraction FP multiplies"),
        _mix("mix_fp_div", "fraction FP divides"),
        _mix("mix_fp_sqrt", "fraction FP square roots"),
        _mix("mix_fp_arith", "fraction FP arithmetic (all)"),
        _mix("mix_cmov", "fraction conditional moves"),
        _mix("mix_other", "fraction other instructions"),
        _mix("mix_mul", "fraction multiplies (int + FP)"),
        _mix("mix_div", "fraction divides (int + FP)"),
    ]
    # --- ILP (4) ------------------------------------------------------
    for w in WINDOW_SIZES:
        features.append(
            Feature(
                f"ilp_w{w}",
                CATEGORY_ILP,
                f"idealized IPC with a {w}-entry instruction window "
                "(perfect caches and branch prediction, unit latency)",
            )
        )
    # --- register traffic (9) ------------------------------------------
    features.append(
        Feature(
            "reg_avg_input_operands",
            CATEGORY_REG,
            "average register input operands per instruction",
        )
    )
    features.append(
        Feature(
            "reg_avg_degree_use",
            CATEGORY_REG,
            "average degree of use (register reads per register write)",
        )
    )
    for d in DEP_DISTANCE_BUCKETS:
        features.append(
            Feature(
                f"reg_dep_le{d}",
                CATEGORY_REG,
                f"P(register dependency distance <= {d} instructions)",
            )
        )
    # --- memory footprint (4) -------------------------------------------
    features += [
        Feature("foot_instr_64b", CATEGORY_FOOT, "log2 unique 64-byte instruction blocks"),
        Feature("foot_instr_4k", CATEGORY_FOOT, "log2 unique 4KB instruction pages"),
        Feature("foot_data_64b", CATEGORY_FOOT, "log2 unique 64-byte data blocks"),
        Feature("foot_data_4k", CATEGORY_FOOT, "log2 unique 4KB data pages"),
    ]
    # --- data stream strides (18) ----------------------------------------
    for stream, buckets in (
        ("gl", GLOBAL_BUCKETS),
        ("gs", GLOBAL_BUCKETS),
        ("ll", LOCAL_BUCKETS),
        ("ls", LOCAL_BUCKETS),
    ):
        kind = {
            "gl": "global load",
            "gs": "global store",
            "ll": "local load",
            "ls": "local store",
        }[stream]
        for b in buckets:
            features.append(
                Feature(
                    f"stride_{stream}_le{b}",
                    CATEGORY_STRIDE,
                    f"P(|{kind} stride| <= {b} bytes)",
                )
            )
    # --- branch predictability (14) ----------------------------------------
    features.append(
        Feature("br_transition_rate", CATEGORY_BRANCH, "average branch transition rate")
    )
    features.append(Feature("br_taken_rate", CATEGORY_BRANCH, "average branch taken rate"))
    for kind in ORGANIZATIONS:
        label = {
            "gag": "global history, global table",
            "pag": "per-address history, global table",
            "gas": "global history, per-address table",
            "pas": "per-address history, per-address table",
        }[kind]
        for h in REPORTED_LENGTHS:
            features.append(
                Feature(
                    f"ppm_{kind}_h{h}",
                    CATEGORY_BRANCH,
                    f"PPM miss rate, {label}, {h}-bit max history",
                )
            )
    return features


#: The canonical ordered feature list.
FEATURES: List[Feature] = _make_features()

#: Feature count; the paper's 69.
N_FEATURES = len(FEATURES)

#: name -> index into the canonical vector.
FEATURE_INDEX: Dict[str, int] = {f.name: i for i, f in enumerate(FEATURES)}

#: name -> category.
FEATURE_CATEGORY: Dict[str, str] = {f.name: f.category for f in FEATURES}


def feature_names() -> List[str]:
    """Return the 69 feature names in canonical order."""
    return [f.name for f in FEATURES]


def features_in_category(category: str) -> List[str]:
    """Return the names of the features in the given category."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    return [f.name for f in FEATURES if f.category == category]
