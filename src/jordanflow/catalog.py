"""Built-in soliton-normalized multiplication tables for all complex Jordan
algebras of dimension <= 4, the Heisenberg/hyperbolic families, fingerprint
matching, and the table-reproduction harness.

Irrational coefficients are kept as expression strings and evaluated to
double on construction, so reports can print their provenance.  Three
families (A_4_16, A_4_17, A_4_25) are published only at limited printed
precision; their tensors are refined by a short energy flow when the catalog
is built, which drives the soliton residual from ~3e-5 to below 1e-8.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (
    StructureTensor,
    derivation_algebra,
    has_unit,
    is_associative,
    is_decomposable,
    is_jordan,
    is_nilpotent,
    is_semisimple,
    is_simple,
    power_dims,
    product_rank,
    _inf_act_table,
    _moment_table,
)
from .flow import FlowOptions, clean_limit, run_flow
from .moment import SolitonType, soliton_check, soliton_type, type_from_beta
from .snap import RationalSnapError
from .stratify import StratumLabel, beta_mu, label_from_fractions

__all__ = [
    "AlgebraFlags",
    "CatalogEntry",
    "Fingerprint",
    "builtin",
    "names",
    "heisenberg",
    "hyperbolic",
    "regular_double",
    "fingerprint",
    "match",
    "reproduce_tables",
    "ReproduceRow",
    "ReproduceReport",
]

_SQRT_ENV = {"__builtins__": {}, "sqrt": math.sqrt, "cos": math.cos, "sin": math.sin}


def _num(expr: str) -> float:
    return float(eval(expr, _SQRT_ENV))  # static catalog literals only


@dataclass(frozen=True)
class AlgebraFlags:
    associative: bool = False
    simple: bool = False
    semisimple: bool = False
    nilpotent: bool = False
    unital: bool = False
    decomposable: bool = False

    @classmethod
    def parse(cls, text: str) -> "AlgebraFlags":
        raw = {tok for tok in text.split() if tok}
        simple = "S" in raw
        semisimple = simple or "SS" in raw
        return cls(
            associative="A" in raw,
            simple=simple,
            semisimple=semisimple,
            nilpotent="N" in raw,
            unital=semisimple or "U" in raw,
            decomposable="D" in raw,
        )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    tensor: StructureTensor                  # soliton-accurate constants
    printed_tensor: StructureTensor          # constants exactly as tabulated
    flags: AlgebraFlags
    decomposition: tuple[str, ...] | None
    expected_beta: tuple[Fraction, ...]      # ascending
    expected_energy: Fraction
    expected_type: SolitonType | None        # None for the one non-distinguished orbit
    distinguished: bool
    provenance: dict[str, str]

    def expected_label(self) -> StratumLabel:
        return label_from_fractions(self.expected_beta)


# --- raw tables ------------------------------------------------------------
# (name, dim, {(i,j,k): coefficient expression}, printed flags,
#  decomposition or None, expected beta)
# Basis order follows each row: idempotent generators first (e_1, e_2, ...)
# then nilpotent ones (n_1, n_2, ...).

_RAW: list[tuple] = [
    ("A_1_1", 1, {(1, 1, 1): "1"}, "A S", None, ("-1",)),

    ("A_2_1", 2, {(1, 1, 1): "1", (1, 2, 2): "1"}, "A U", None, ("-1", "0")),
    ("A_2_2", 2, {(1, 1, 1): "1", (1, 2, 2): "1/2"}, "", None, ("-1", "0")),
    ("A_2_3", 2, {(1, 1, 2): "1"}, "A N", None, ("-2", "1")),
    ("A_2_4", 2, {(1, 1, 1): "1", (2, 2, 2): "1"}, "A SS D", ("A_1_1", "A_1_1"), ("-1/2", "-1/2")),
    ("A_2_5", 2, {(1, 1, 1): "1"}, "A D", ("A_1_1", "T"), ("-1", "0")),

    ("A_3_1", 3, {(1, 1, 1): "1", (2, 2, 2): "1", (3, 3, 3): "1"}, "SS A D",
     ("A_1_1", "A_1_1", "A_1_1"), ("-1/3", "-1/3", "-1/3")),
    ("A_3_2", 3, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5)/2", (3, 3, 1): "sqrt(5)/2",
                  (1, 2, 2): "1", (1, 3, 3): "1"}, "S", None, ("-1/3", "-1/3", "-1/3")),
    ("A_3_3", 3, {(1, 1, 1): "1", (2, 2, 2): "sqrt(3)", (1, 3, 3): "1"}, "A U D",
     ("A_2_1", "A_1_1"), ("-1/2", "-1/2", "0")),
    ("A_3_4", 3, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5/3)", (1, 2, 2): "1", (1, 3, 3): "1"},
     "U", None, ("-1/2", "-1/2", "0")),
    ("A_3_5", 3, {(1, 1, 1): "1", (2, 2, 2): "sqrt(3/2)", (1, 3, 3): "1/2"}, "D",
     ("A_2_2", "A_1_1"), ("-1/2", "-1/2", "0")),
    ("A_3_6", 3, {(1, 1, 1): "1", (2, 2, 2): "1"}, "A D",
     ("A_1_1", "A_1_1", "T"), ("-1/2", "-1/2", "0")),
    ("A_3_7", 3, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (2, 2, 3): "1"},
     "A U", None, ("-5/6", "-1/3", "1/6")),
    ("A_3_8", 3, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1"}, "A U", None, ("-1", "0", "0")),
    ("A_3_9", 3, {(1, 1, 1): "1", (1, 2, 2): "1"}, "A D", ("A_2_1", "T"), ("-1", "0", "0")),
    ("A_3_10", 3, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1", (2, 2, 3): "sqrt(7/10)"},
     "", None, ("-5/6", "-1/3", "1/6")),
    ("A_3_11", 3, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1"}, "", None, ("-1", "0", "0")),
    ("A_3_12", 3, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2"}, "", None, ("-1", "0", "0")),
    ("A_3_13", 3, {(1, 1, 1): "1", (1, 2, 2): "1/2", (2, 2, 3): "sqrt(3/10)"},
     "", None, ("-5/6", "-1/3", "1/6")),
    ("A_3_14", 3, {(1, 1, 1): "1", (1, 2, 2): "1/2"}, "D", ("A_2_2", "T"), ("-1", "0", "0")),
    ("A_3_15", 3, {(1, 1, 1): "sqrt(5)", (2, 2, 3): "1"}, "A D",
     ("A_2_3", "A_1_1"), ("-5/6", "-1/3", "1/6")),
    ("A_3_16", 3, {(1, 1, 1): "1"}, "A D", ("A_1_1", "T", "T"), ("-1", "0", "0")),
    ("A_3_17", 3, {(1, 1, 2): "1", (1, 2, 3): "1"}, "A N", None, ("-4/3", "-1/3", "2/3")),
    ("A_3_18", 3, {(1, 2, 3): "1"}, "A N", None, ("-1", "-1", "1")),
    ("A_3_19", 3, {(1, 1, 2): "1"}, "A N D", ("A_2_3", "T"), ("-2", "0", "1")),

    ("A_4_1", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5)/2", (3, 3, 1): "sqrt(5)/2",
                  (1, 2, 2): "1", (1, 3, 3): "1", (4, 4, 4): "sqrt(5/2)"}, "SS D",
     ("A_3_2", "A_1_1"), ("-1/4",) * 4),
    ("A_4_2", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1",
                  (2, 3, 1): "sqrt(7/5)", (4, 4, 1): "sqrt(7/5)"}, "S", None, ("-1/4",) * 4),
    ("A_4_3", 4, {(1, 1, 1): "1", (2, 2, 2): "1", (3, 3, 3): "1", (4, 4, 4): "1"}, "SS A D",
     ("A_1_1",) * 4, ("-1/4",) * 4),
    ("A_4_4", 4, {(1, 1, 1): "1", (1, 4, 4): "1", (2, 2, 2): "sqrt(3)", (3, 3, 3): "sqrt(3)"},
     "U A D", ("A_2_1", "A_1_1", "A_1_1"), ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_5", 4, {(1, 1, 1): "1", (2, 2, 2): "1", (3, 3, 3): "1"}, "A D",
     ("A_1_1", "A_1_1", "A_1_1", "T"), ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_6", 4, {(1, 1, 1): "1", (2, 2, 2): "sqrt(3/2)", (3, 3, 3): "sqrt(3/2)",
                  (1, 4, 4): "1/2"}, "D", ("A_2_2", "A_1_1", "A_1_1"),
     ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_7", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5/3)", (1, 2, 2): "1", (1, 4, 4): "1",
                  (3, 3, 3): "sqrt(10/3)"}, "U D", ("A_3_4", "A_1_1"),
     ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_8", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5)/2", (3, 3, 1): "sqrt(5)/2",
                  (1, 2, 2): "1", (1, 3, 3): "1"}, "D", ("A_3_2", "T"),
     ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_9", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(7)/2", (3, 3, 1): "sqrt(7)/2",
                  (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1"}, "U", None,
     ("-1/3", "-1/3", "-1/3", "0")),
    ("A_4_10", 4, {(1, 1, 1): "1", (1, 3, 3): "1/2", (2, 2, 2): "sqrt(3/2)"}, "D",
     ("A_2_2", "A_1_1", "T"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_11", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(5/3)", (1, 2, 2): "1", (1, 3, 3): "1"},
     "D", ("A_3_4", "T"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_12", 4, {(1, 1, 1): "1", (2, 2, 2): "sqrt(2)", (1, 3, 3): "1/2", (1, 4, 4): "1/2"},
     "D", ("A_3_12", "A_1_1"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_13", 4, {(1, 1, 1): "1", (2, 2, 2): "1", (1, 3, 3): "1/2", (2, 4, 4): "1/2"},
     "D", ("A_2_2", "A_2_2"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_14", 4, {(1, 1, 1): "1", (1, 3, 3): "1/2", (1, 4, 4): "1", (2, 2, 2): "sqrt(7/2)"},
     "D", ("A_3_11", "A_1_1"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_15", 4, {(1, 1, 1): "1", (2, 2, 2): "sqrt(2)", (1, 3, 3): "1", (2, 4, 4): "1/sqrt(2)"},
     "D", ("A_2_1", "A_2_2"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_16", 4, "trig16", "", None, ("-1/2", "-1/2", "0", "0")),
    ("A_4_17", 4, "trig17", "U", None, ("-1/2", "-1/2", "0", "0")),
    ("A_4_18", 4, {(1, 1, 1): "1", (2, 2, 1): "sqrt(7/3)", (1, 2, 2): "1", (1, 3, 3): "1",
                   (1, 4, 4): "1"}, "U", None, ("-1/2", "-1/2", "0", "0")),
    ("A_4_19", 4, {(1, 1, 1): "1", (2, 2, 2): "1"}, "A D",
     ("A_1_1", "A_1_1", "T", "T"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_20", 4, {(1, 1, 1): "1", (2, 2, 2): "sqrt(3)", (1, 3, 3): "1"}, "A D",
     ("A_2_1", "A_1_1", "T"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_21", 4, {(1, 1, 1): "1", (2, 2, 2): "sqrt(5)", (1, 3, 3): "1", (1, 4, 4): "1"},
     "A U D", ("A_3_8", "A_1_1"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_22", 4, {(1, 1, 1): "1", (2, 2, 2): "1", (1, 3, 3): "1", (2, 4, 4): "1"},
     "A U D", ("A_2_1", "A_2_1"), ("-1/2", "-1/2", "0", "0")),
    ("A_4_23", 4, {(1, 1, 1): "1", (1, 3, 3): "1/2", (3, 3, 4): "sqrt(3/10)",
                   (2, 2, 2): "sqrt(3/2)"}, "D", ("A_3_13", "A_1_1"),
     ("-5/11", "-5/11", "-2/11", "1/11")),
    ("A_4_24", 4, {(1, 1, 1): "1", (1, 3, 3): "1/2", (1, 4, 4): "1", (3, 3, 4): "sqrt(7/10)",
                   (2, 2, 2): "sqrt(7/2)"}, "D", ("A_3_10", "A_1_1"),
     ("-5/11", "-5/11", "-2/11", "1/11")),
    ("A_4_25", 4, "trig25", "U", None, ("-5/11", "-5/11", "-2/11", "1/11")),
    ("A_4_26", 4, {(1, 1, 1): "1", (2, 2, 2): "1", (3, 3, 4): "1/sqrt(5)"}, "A D",
     ("A_2_3", "A_1_1", "A_1_1"), ("-5/11", "-5/11", "-2/11", "1/11")),
    ("A_4_27", 4, {(1, 1, 1): "1", (1, 3, 3): "1", (1, 4, 4): "1", (3, 3, 4): "1",
                   (2, 2, 2): "sqrt(5)"}, "U A D", ("A_3_7", "A_1_1"),
     ("-5/11", "-5/11", "-2/11", "1/11")),
    ("A_4_28", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2"}, "D", ("A_2_2", "T", "T"),
     ("-1", "0", "0", "0")),
    ("A_4_29", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1"}, "D",
     ("A_3_11", "T"), ("-1", "0", "0", "0")),
    ("A_4_30", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2"}, "D",
     ("A_3_12", "T"), ("-1", "0", "0", "0")),
    ("A_4_31", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1/2"},
     "", None, ("-1", "0", "0", "0")),
    ("A_4_32", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2", (1, 4, 4): "1"},
     "", None, ("-1", "0", "0", "0")),
    ("A_4_33", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2", (1, 4, 4): "1/2"},
     "", None, ("-1", "0", "0", "0")),
    ("A_4_34", 4, {(1, 1, 1): "1"}, "A D", ("A_1_1", "T", "T", "T"), ("-1", "0", "0", "0")),
    ("A_4_35", 4, {(1, 1, 1): "1", (1, 2, 2): "1"}, "A D", ("A_2_1", "T", "T"),
     ("-1", "0", "0", "0")),
    ("A_4_36", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1"},
     "U A", None, ("-1", "0", "0", "0")),
    ("A_4_37", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1"}, "A D",
     ("A_3_8", "T"), ("-1", "0", "0", "0")),
    ("A_4_38", 4, {(1, 1, 1): "sqrt(7)", (2, 2, 3): "1", (2, 3, 4): "1"}, "A D",
     ("A_3_17", "A_1_1"), ("-7/10", "-2/5", "-1/10", "1/5")),
    ("A_4_39", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1",
                   (2, 2, 3): "1", (2, 3, 4): "1"}, "U A", None,
     ("-7/10", "-2/5", "-1/10", "1/5")),
    # the table omits the A letter on A_4_40 although all its factors are associative
    ("A_4_40", 4, {(1, 1, 1): "sqrt(5)", (2, 2, 3): "1"}, "A D", ("A_2_3", "A_1_1", "T"),
     ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_41", 4, {(1, 1, 1): "sqrt(6)", (2, 3, 4): "1"}, "A D", ("A_3_18", "A_1_1"),
     ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_42", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1",
                   (2, 2, 3): "sqrt(7/5)"}, "U A", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_43", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1",
                   (2, 2, 4): "sqrt(7/6)", (3, 3, 4): "sqrt(7/6)"}, "U A", None,
     ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_44", 4, {(1, 1, 1): "sqrt(10/3)", (1, 2, 2): "sqrt(5/6)", (2, 2, 3): "1"},
     "D", ("A_3_13", "T"), ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_45", 4, {(1, 1, 1): "2", (1, 2, 2): "1", (2, 2, 4): "1", (3, 3, 4): "1"},
     "", None, ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_46", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (3, 3, 4): "sqrt(3/10)"}, "D",
     ("A_2_2", "A_2_3"), ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_47", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (3, 3, 4): "sqrt(3/5)"}, "A D",
     ("A_2_1", "A_2_3"), ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_48", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2", (2, 2, 4): "sqrt(2/5)"},
     "", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_49", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1/2",
                   (2, 2, 4): "1/sqrt(3)", (3, 3, 4): "1/sqrt(3)"}, "", None,
     ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_50", 4, {(1, 1, 1): "1", (1, 3, 3): "1/2", (1, 4, 4): "1/2", (2, 3, 4): "1/sqrt(3)"},
     "", None, ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_51", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1", (2, 2, 3): "sqrt(7/10)"},
     "D", ("A_3_10", "T"), ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_52", 4, {(1, 1, 1): "1", (1, 2, 2): "1/2", (1, 3, 3): "1", (2, 2, 4): "sqrt(7/10)"},
     "", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_53", 4, "valpha53", "", None, ("-9/11", "-4/11", "1/11", "1/11")),
    ("A_4_54", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (2, 2, 3): "1"},
     "A D", ("A_3_7", "T"), ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_55", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1/2",
                   (4, 4, 3): "sqrt(11/10)"}, "", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_56", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1/2",
                   (2, 2, 3): "sqrt(11/10)"}, "", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_57", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1", (1, 4, 4): "1/2",
                   (2, 2, 3): "sqrt(11/12)", (4, 4, 3): "sqrt(11/12)"}, "", None,
     ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_58", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1/2", (1, 4, 4): "1/2",
                   (4, 4, 2): "2/sqrt(5)"}, "", None, ("-5/6", "-1/3", "0", "1/6")),
    ("A_4_59", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1/2", (1, 4, 4): "1/2",
                   (3, 3, 2): "sqrt(2/3)", (4, 4, 2): "sqrt(2/3)"}, "", None,
     ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_60", 4, {(1, 1, 1): "1", (1, 2, 2): "1", (1, 3, 3): "1/2", (1, 4, 4): "1/2",
                   (2, 3, 4): "sqrt(2/3)"}, "", None, ("-3/4", "-1/4", "-1/4", "1/4")),
    ("A_4_61", 4, {(1, 1, 2): "1", (2, 2, 4): "1", (1, 2, 3): "1", (1, 3, 4): "1"},
     "A N", None, ("-1", "-1/2", "0", "1/2")),
    ("A_4_62", 4, {(1, 1, 2): "1", (4, 4, 2): "2", (1, 2, 3): "sqrt(3)"}, "N", None,
     ("-8/11", "-8/11", "-1/11", "6/11")),
    ("A_4_63", 4, {(1, 2, 3): "1", (1, 3, 4): "1", (2, 2, 4): "1"}, "N", None,
     ("-1", "-1/2", "0", "1/2")),
    ("A_4_64", 4, {(1, 2, 3): "1", (1, 3, 4): "1"}, "N", None, ("-1", "-1/2", "0", "1/2")),
    ("A_4_65", 4, {(1, 1, 2): "2/sqrt(3)", (2, 3, 4): "1"}, "N", None,
     ("-4/5", "-3/5", "-1/5", "3/5")),
    ("A_4_66", 4, {(1, 1, 2): "1", (3, 3, 4): "1", (1, 2, 4): "sqrt(3)/2"}, "A N", None,
     ("-1", "-4/7", "-1/7", "5/7")),
    ("A_4_67", 4, {(1, 1, 2): "1", (1, 2, 3): "1"}, "A N D", ("A_3_17", "T"),
     ("-4/3", "-1/3", "0", "2/3")),
    ("A_4_68", 4, {(1, 1, 2): "1", (3, 3, 4): "1"}, "A N D", ("A_2_3", "A_2_3"),
     ("-1", "-1", "1/2", "1/2")),
    ("A_4_69", 4, {(1, 1, 2): "1", (1, 3, 4): "sqrt(3/2)"}, "A N", None,
     ("-5/4", "-3/4", "1/4", "3/4")),
    ("A_4_70", 4, {(1, 1, 2): "1", (3, 4, 2): "1"}, "A N", None,
     ("-2/3", "-2/3", "-2/3", "1")),
    # the table omits the D letter on A_4_71 / A_4_72 although it prints their
    # decompositions; the flag is restored here
    ("A_4_71", 4, {(1, 2, 3): "1"}, "A N D", ("A_3_18", "T"), ("-1", "-1", "0", "1")),
    ("A_4_72", 4, {(1, 1, 2): "1"}, "A N D", ("A_2_3", "T", "T"), ("-2", "0", "0", "1")),
]

_NOT_DISTINGUISHED = {"A_4_63"}
_PRINTED_PRECISION = {"A_4_16", "A_4_17", "A_4_25"}

_TRIG_PARAMS = {
    "trig16": {"k": 1.20577, "t": 1.22166},
    "trig17": {"k": 1.54492, "t": 1.45358},
    "trig25": {"k": 1.54492, "t": 1.45358, "l": 0.836502},
}


def _trig_products(kind: str, params: dict | None = None) -> tuple[dict, dict[str, str]]:
    """Two-idempotent trig families; the last two slots are nilpotent directions."""
    params = _TRIG_PARAMS[kind] if params is None else params
    k, t = params["k"], params["t"]
    c, s = math.cos(t), math.sin(t)
    prods = {
        (1, 1, 1): k * (c**3 - s**3),
        (1, 1, 2): k * k * c * s * (c + s),
        (2, 2, 1): (1.0 / k) * c * s * (-c + s),
        (2, 2, 2): c**3 + s**3,
        (1, 2, 1): c * s * (c + s),
        (1, 2, 2): k * c * s * (-c + s),
        (1, 3, 3): 0.5 * k * (c - s),
        (2, 3, 3): 0.5 * (c + s),
    }
    if kind == "trig16":
        prods[(1, 4, 4)] = 0.5 * k * c
        prods[(2, 4, 4)] = 0.5 * s
    else:
        prods[(1, 4, 4)] = k * c
        prods[(2, 4, 4)] = s
    if kind == "trig25":
        prods[(3, 3, 4)] = params["l"]
    prov = {key: repr(val) for key, val in params.items()}
    prov["note"] = "two-idempotent family; published parameter precision, re-solved on load"
    return prods, prov


def _alpha53_products() -> tuple[dict, dict[str, str]]:
    alpha = math.sqrt((math.sqrt(345) - 5) / 20)
    beta = math.sqrt((math.sqrt(345) + 45) / 80)
    prods = {
        (1, 1, 1): 1.0,
        (1, 2, 2): 0.5,
        (1, 3, 3): 0.5,
        (1, 3, 4): alpha / 2,
        (1, 4, 3): 1.0 / (2 * alpha),
        (1, 4, 4): 0.5,
        (2, 2, 4): beta,
    }
    prov = {
        "alpha": "sqrt((sqrt(345)-5)/20)",
        "beta": "sqrt((sqrt(345)+45)/80)",
    }
    return prods, prov


def _polish_family(kind: str) -> dict:
    """Re-solve the family parameters so the criticality residual vanishes.

    The published parameters carry ~5 printed digits (residual ~3e-5); a few
    Gauss-Newton steps on the criticality equation, inside the family, reach
    the double-precision floor (~1e-15).  The generic gradient flow stalls
    near 1e-8 here because the energy differences drop below float64
    resolution first.
    """
    keys = sorted(_TRIG_PARAMS[kind])
    vec = np.array([_TRIG_PARAMS[kind][key] for key in keys])

    def resid(values: np.ndarray) -> np.ndarray:
        prods, _ = _trig_products(kind, dict(zip(keys, values)))
        t = StructureTensor.from_products(4, prods).table
        m = _moment_table(t)
        n2 = float(np.sum(np.abs(t) ** 2))
        c = -float(np.sum(np.abs(m) ** 2)) / n2
        flat = _inf_act_table(m - c * np.eye(4), t).ravel()
        return np.concatenate([flat.real, flat.imag]) / math.sqrt(n2)

    step_h = 1e-7
    for _ in range(8):
        f0 = resid(vec)
        jac = np.zeros((f0.size, vec.size))
        for p in range(vec.size):
            up, down = vec.copy(), vec.copy()
            up[p] += step_h
            down[p] -= step_h
            jac[:, p] = (resid(up) - resid(down)) / (2 * step_h)
        delta, *_ = np.linalg.lstsq(jac, -f0, rcond=None)
        vec = vec + delta
        if np.linalg.norm(f0) < 1e-14:
            break
    return dict(zip(keys, vec))


def _build_entry(record: tuple) -> CatalogEntry:
    name, dim, prods, flag_text, decomposition, beta_strs = record
    if prods == "valpha53":
        numeric, prov = _alpha53_products()
    elif isinstance(prods, str):
        numeric, prov = _trig_products(prods)
    else:
        numeric = {key: _num(expr) for key, expr in prods.items()}
        prov = {f"{i},{j},{k}": expr for (i, j, k), expr in prods.items()}
    printed = StructureTensor.from_products(dim, numeric)
    tensor = printed
    if name in _PRINTED_PRECISION:
        refined, _ = _trig_products(prods, _polish_family(prods))
        tensor = StructureTensor.from_products(dim, refined)
    beta = tuple(Fraction(b) for b in beta_strs)
    distinguished = name not in _NOT_DISTINGUISHED
    expected_type = None
    if distinguished:
        grouped: list[tuple[Fraction, int]] = []
        for b in beta:
            if grouped and grouped[-1][0] == b:
                grouped[-1] = (b, grouped[-1][1] + 1)
            else:
                grouped.append((b, 1))
        expected_type = type_from_beta(grouped)
    return CatalogEntry(
        name=name,
        dim=dim,
        tensor=tensor,
        printed_tensor=printed,
        flags=AlgebraFlags.parse(flag_text),
        decomposition=decomposition,
        expected_beta=beta,
        expected_energy=sum((b * b for b in beta), Fraction(0)),
        expected_type=expected_type,
        distinguished=distinguished,
        provenance=prov,
    )


@lru_cache(maxsize=1)
def _entries() -> dict[str, CatalogEntry]:
    return {record[0]: _build_entry(record) for record in _RAW}


def names(dim: int | None = None) -> list[str]:
    return [n for n, e in _entries().items() if dim is None or e.dim == dim]


def builtin(name: str) -> CatalogEntry:
    try:
        return _entries()[name]
    except KeyError:
        raise ValueError(f"unknown catalog name {name!r}; see names()") from None


def heisenberg(n: int) -> StructureTensor:
    """n_1^2 = n_2 on C^n; the unique maximal-energy orbit (E = 5)."""
    if n < 2:
        raise ValueError("heisenberg(n) needs n >= 2")
    return StructureTensor.from_products(n, {(1, 1, 2): 1.0})


def hyperbolic(n: int) -> StructureTensor:
    """e^2 = e, e n_i = n_i / 2 on C^n; energy 1."""
    if n < 2:
        raise ValueError("hyperbolic(n) needs n >= 2")
    prods = {(1, 1, 1): 1.0}
    for i in range(2, n + 1):
        prods[(1, i, i)] = 0.5
    return StructureTensor.from_products(n, prods)


def regular_double(mu: StructureTensor) -> StructureTensor:
    """S + N with N a copy of S acted on by left multiplication and N^2 = 0."""
    n = mu.dim
    t = np.zeros((2 * n,) * 3, dtype=complex)
    t[:n, :n, :n] = mu.table
    t[:n, n:, n:] = mu.table
    t[n:, :n, n:] = np.swapaxes(mu.table, 0, 1)
    return StructureTensor(t)


# --- fingerprints ----------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary; every field is preserved by basis change."""

    dim: int
    dim_der: int
    power_dims: tuple[int, ...]
    product_rank: int
    is_nilpotent: bool
    is_semisimple: bool
    is_associative: bool
    has_unit: bool
    stratum_energy: float

    def matches(self, other: "Fingerprint", energy_tol: float = 1e-6) -> bool:
        return (
            self.dim == other.dim
            and self.dim_der == other.dim_der
            and self.power_dims == other.power_dims
            and self.product_rank == other.product_rank
            and self.is_nilpotent == other.is_nilpotent
            and self.is_semisimple == other.is_semisimple
            and self.is_associative == other.is_associative
            and self.has_unit == other.has_unit
            and abs(self.stratum_energy - other.stratum_energy) <= energy_tol
        )


def fingerprint(mu: StructureTensor, rank_tol: float = 1e-8,
                flow_opts: FlowOptions = FlowOptions()) -> Fingerprint:
    """Invariant summary of a Jordan tensor.

    rank_tol should sit above the coefficient noise of the tensor: flow
    terminals approximate their limit orbit to the flow's accuracy, so a
    coarser cutoff (~1e-4) reads off the limit's invariants there.
    """
    report = soliton_check(mu, pair_derivations=False)
    stratum_energy = report.energy if report.is_soliton else run_flow(mu, flow_opts).terminal_energy
    dims = power_dims(mu, rank_tol)
    return Fingerprint(
        dim=mu.dim,
        dim_der=derivation_algebra(mu, rank_tol)[0],
        power_dims=tuple(dims),
        product_rank=product_rank(mu, rank_tol),
        is_nilpotent=dims[-1] == 0,
        is_semisimple=is_semisimple(mu, rank_tol),
        is_associative=is_associative(mu, tol=max(1e-9, rank_tol * mu.norm**2)),
        has_unit=has_unit(mu, tol=max(1e-9, rank_tol)),
        stratum_energy=stratum_energy,
    )


@lru_cache(maxsize=None)
def _entry_fingerprint(name: str) -> Fingerprint:
    return fingerprint(builtin(name).tensor)


def match(mu: StructureTensor, rank_tol: float = 1e-8,
          energy_tol: float = 1e-6, clean: bool = True) -> list[str]:
    """Catalog entries of the same dimension with an agreeing fingerprint.

    Flow terminals are first snapped to their visible limit pattern (see
    clean_limit), so that decayed-but-nonzero coefficients of the start
    orbit do not leak into the rank decisions.  Fingerprints are necessary,
    not sufficient: multiple candidates are possible and reported in catalog
    order.
    """
    probe_tensor = clean_limit(mu) if clean else mu
    probe = fingerprint(probe_tensor, rank_tol)
    return [
        name for name in names(mu.dim)
        if _entry_fingerprint(name).matches(probe, energy_tol)
    ]


# --- table reproduction ----------------------------------------------------


@dataclass(frozen=True)
class ReproduceRow:
    name: str
    dim: int
    jordan_ok: bool
    flags_ok: bool
    soliton_ok: bool
    residual: float
    type_str: str
    beta_ok: bool
    energy_ok: bool
    note: str

    @property
    def ok(self) -> bool:
        return (self.jordan_ok and self.flags_ok and self.soliton_ok
                and self.beta_ok and self.energy_ok)


@dataclass(frozen=True)
class ReproduceReport:
    rows: list[ReproduceRow]
    strata_by_dim: dict[int, int]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> list[ReproduceRow]:
        return [row for row in self.rows if not row.ok]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "dim", "jordan_ok", "flags_ok", "soliton_ok",
                         "residual", "type", "beta_ok", "energy_ok", "status", "note"])
        for r in self.rows:
            writer.writerow([r.name, r.dim, r.jordan_ok, r.flags_ok, r.soliton_ok,
                             f"{r.residual:.3e}", r.type_str, r.beta_ok, r.energy_ok,
                             "pass" if r.ok else "FAIL", r.note])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = ["| name | dim | type | residual | status | note |",
                 "|---|---|---|---|---|---|"]
        for r in self.rows:
            lines.append(
                f"| {r.name} | {r.dim} | {r.type_str} | {r.residual:.3e} | "
                f"{'pass' if r.ok else 'FAIL'} | {r.note} |"
            )
        lines.append("")
        strata = ", ".join(f"dim {d}: {c}" for d, c in sorted(self.strata_by_dim.items()))
        lines.append(f"strata counts: {strata}")
        return "\n".join(lines)


def _flags_agree(entry: CatalogEntry) -> bool:
    mu = entry.tensor
    computed = AlgebraFlags(
        associative=is_associative(mu),
        simple=is_simple(mu),
        semisimple=is_semisimple(mu),
        nilpotent=is_nilpotent(mu),
        unital=has_unit(mu),
        decomposable=is_decomposable(mu),
    )
    return computed == entry.flags


def _reproduce_row(name: str) -> ReproduceRow:
    entry = builtin(name)
    mu = entry.tensor
    jordan_ok = is_jordan(mu, tol=1e-9)
    flags_ok = _flags_agree(entry)
    report = soliton_check(mu)
    note = ""
    if not entry.distinguished:
        # no soliton exists on this orbit: the flow terminal labels the stratum
        soliton_ok = not report.is_soliton
        trace = run_flow(mu)
        evals = np.sort(np.linalg.eigvalsh(trace.terminal_report.m))
        try:
            got = StratumLabel.from_floats(evals)
            beta_ok = got.beta == entry.expected_beta
        except RationalSnapError:
            beta_ok = False
        energy_ok = abs(trace.terminal_energy - float(entry.expected_energy)) <= 1e-6
        limit_fp = fingerprint(clean_limit(trace.terminal))
        own_fp = _entry_fingerprint(name)
        if limit_fp.matches(own_fp):
            beta_ok = False
            note = "flow limit fingerprint does not separate from the start"
        else:
            note = (f"no soliton (residual {report.soliton_residual:.2e}); "
                    f"flow limit E={trace.terminal_energy:.9f}, dim Der {own_fp.dim_der}->{limit_fp.dim_der}")
        return ReproduceRow(name, entry.dim, jordan_ok, flags_ok, soliton_ok,
                            report.soliton_residual, "none", beta_ok, energy_ok, note)

    soliton_ok = report.is_soliton
    try:
        stype = soliton_type(mu)
        type_str = str(stype)
        beta_label = beta_mu(mu)
        beta_ok = (tuple(stype.beta_diagonal()) == entry.expected_beta
                   and beta_label.beta == entry.expected_beta)
        energy_ok = stype.energy == entry.expected_energy
    except (RationalSnapError, ValueError) as exc:
        type_str, beta_ok, energy_ok = "unsnapped", False, False
        note = str(exc)
    if name in _PRINTED_PRECISION:
        printed_res = soliton_check(entry.printed_tensor, pair_derivations=False).soliton_residual
        note = f"printed constants residual {printed_res:.2e}, refined to {report.soliton_residual:.2e}"
    return ReproduceRow(name, entry.dim, jordan_ok, flags_ok, soliton_ok,
                        report.soliton_residual, type_str, beta_ok, energy_ok, note)


def reproduce_tables(dims=(1, 2, 3, 4), jobs: int = 1) -> ReproduceReport:
    """Recompute soliton data for every catalog entry and diff against the tables."""
    wanted = [n for n in names() if builtin(n).dim in set(dims)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_reproduce_row, wanted))
    else:
        rows = [_reproduce_row(n) for n in wanted]
    strata: dict[int, set] = {}
    for name in wanted:
        entry = builtin(name)
        strata.setdefault(entry.dim, set()).add(entry.expected_beta)
    return ReproduceReport(
        rows=rows,
        strata_by_dim={d: len(s) for d, s in sorted(strata.items())},
    )
