"""The three workloads: how each makes a round of inputs, runs one item, and checks it.

A run repeats whole rounds.  Round r draws its inputs from the generator
seeded with (seed, r), so every round has the same make-up (the same
entries, product pairs or command) with fresh random group elements: no
input repeats within a run, and a result cache cannot hit on `flows` or
`classify`.  Only the calls into jordanflow are timed; inputs are made
before a round and checked after it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jordanflow as jf
import numpy as np
from jordanflow import algebra
from jordanflow.sampling import random_group_element, random_unitary

import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CLI_TIMEOUT_S = 150

# Generic starts g.mu (random_group_element) on direct products of semisimple
# entries; two products for each n = 5..8.  The pairs are fixed so that every
# seed flows the same orbits; the seed draws g.
SEMISIMPLE_PRODUCTS = (
    ("A_4_1", "A_1_1"), ("A_3_2", "A_2_4"),
    ("A_4_2", "A_2_4"), ("A_3_1", "A_3_2"),
    ("A_4_3", "A_3_1"), ("A_4_1", "A_3_2"),
    ("A_4_1", "A_4_2"), ("A_4_3", "A_4_3"),
)
# Torus-diagonal starts diag(e^u).mu on two-factor products at n = 5, 6.  The
# list mixes orbits that stop on the gradient (~40 steps) and on the energy
# plateau (~530 steps), as the catalog entries do.
TORUS_PRODUCTS = (
    ("A_2_2", "A_3_12"), ("A_3_4", "A_2_1"), ("A_2_3", "A_3_7"), ("A_3_5", "A_2_2"),
    ("A_4_13", "A_2_1"), ("A_3_13", "A_3_5"), ("A_4_50", "A_2_1"), ("A_3_14", "A_3_4"),
)
# u ~ N(0, TORUS_SCALE^2) per coordinate of a torus start diag(e^u).mu.
TORUS_SCALE = 0.5
CLASSIFY_PRODUCTS_PER_N = 6


@dataclass
class Item:
    label: str
    n: int
    tensor: object = None      # StructureTensor input
    expected: dict = None      # what the checker compares against


class Flows:
    """Seeded flows at n = 2..8 that must end at the exact stratum energy."""

    name = "flows"

    def __init__(self, seed: int, tracer):
        self.seed = seed

    def setup(self) -> None:
        pass  # the catalog build is all it needs

    def make_round(self, r: int) -> list[Item]:
        rng = np.random.default_rng([self.seed, r])
        items = []

        def generic(label, mu, n):
            start = jf.act(random_group_element(rng, n), mu)
            items.append(Item(label, n, start, {"energy": Fraction(1, n)}))

        def torus(label, mu, n, energy):
            g = np.diag(np.exp(TORUS_SCALE * rng.normal(size=n)))
            items.append(Item(label, n, jf.act(g, mu), {"energy": energy}))

        for name in jf.names():
            entry = jf.builtin(name)
            if not entry.distinguished:
                continue  # A_4_63's long flow is the `tables` workload's
            if entry.flags.semisimple:
                generic(name, entry.tensor, entry.dim)
            else:
                torus(name, entry.tensor, entry.dim, oracle.energy_of(entry.expected_beta))
        for a, b in SEMISIMPLE_PRODUCTS:
            ea, eb = jf.builtin(a), jf.builtin(b)
            generic(f"{a}x{b}", jf.direct_product(ea.tensor, eb.tensor), ea.dim + eb.dim)
        for a, b in TORUS_PRODUCTS:
            ea, eb = jf.builtin(a), jf.builtin(b)
            energy = oracle.energy_of(oracle.product_beta(ea.expected_beta, eb.expected_beta))
            torus(f"{a}x{b}", jf.direct_product(ea.tensor, eb.tensor), ea.dim + eb.dim, energy)
        return items

    def run_item(self, item: Item):
        return jf.run_flow(item.tensor)

    def check_item(self, item: Item, trace_) -> list[str]:
        return oracle.check_flow(trace_.energies, trace_.stop_reason, trace_.terminal.table,
                                 float(item.expected["energy"]))


class Classify:
    """Identify seeded unitary images of solitons without a long flow."""

    name = "classify"

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.pairs: dict[int, list[tuple[str, str]]] = {}

    def setup(self) -> None:
        # match() fills the fingerprint table of each dimension on first use;
        # for dim 4 this includes flowing A_4_63.
        for dim in (1, 2, 3, 4):
            jf.match(jf.builtin(jf.names(dim)[0]).tensor)

    def _pairs(self, n: int) -> list[tuple[str, str]]:
        if n not in self.pairs:
            dist = [name for name in jf.names() if jf.builtin(name).distinguished]
            self.pairs[n] = [(a, b) for i, a in enumerate(dist) for b in dist[i:]
                             if jf.builtin(a).dim + jf.builtin(b).dim == n]
        return self.pairs[n]

    def make_round(self, r: int) -> list[Item]:
        rng = np.random.default_rng([self.seed, r])
        items = []
        for name in jf.names():
            entry = jf.builtin(name)
            if not entry.distinguished:
                continue
            mu = jf.act(random_unitary(rng, entry.dim), entry.tensor)
            flags = entry.flags
            items.append(Item(name, entry.dim, mu, {
                "beta": entry.expected_beta, "name": name,
                "flags": {"nilpotent": flags.nilpotent, "semisimple": flags.semisimple,
                          "associative": flags.associative, "unital": flags.unital}}))
        for n in (5, 6, 7, 8):
            pool = self._pairs(n)
            for k in rng.choice(len(pool), size=CLASSIFY_PRODUCTS_PER_N):
                a, b = pool[int(k)]
                ea, eb = jf.builtin(a), jf.builtin(b)
                mu = jf.act(random_unitary(rng, n), jf.soliton_product(ea.tensor, eb.tensor))
                fa, fb = ea.flags, eb.flags
                items.append(Item(f"{a}x{b}", n, mu, {
                    "beta": oracle.product_beta(ea.expected_beta, eb.expected_beta), "name": None,
                    "flags": {"nilpotent": fa.nilpotent and fb.nilpotent,
                              "semisimple": fa.semisimple and fb.semisimple,
                              "associative": fa.associative and fb.associative,
                              "unital": fa.unital and fb.unital}}))
        return items

    def run_item(self, item: Item) -> dict:
        """soliton_check, soliton_type, the CLI `invariants` set and, for n <= 4, match."""
        mu = item.tensor
        report = jf.soliton_check(mu)
        try:
            beta, snap_error = tuple(jf.soliton_type(mu).beta_diagonal()), False
        except jf.RationalSnapError:
            beta, snap_error = None, True
        rad = algebra.radical(mu)
        algebra.derivation_algebra(mu)
        algebra.annihilator(mu)
        algebra.power_dims(mu)
        algebra.jordan_defect(mu)
        flags = {"nilpotent": algebra.is_nilpotent(mu), "semisimple": rad.dim == 0,
                 "associative": algebra.is_associative(mu), "unital": algebra.has_unit(mu)}
        matches = jf.match(mu) if item.n <= 4 else None
        return {"residual_ok": report.is_soliton, "beta": beta, "snap_error": snap_error,
                "flags": flags, "matches": matches}

    def check_item(self, item: Item, out: dict) -> list[str]:
        exp = item.expected
        return oracle.check_classify(out["residual_ok"], out["beta"], out["snap_error"],
                                     exp["beta"], out["flags"], exp["flags"], out["matches"],
                                     exp["name"])


class Tables:
    """One cold `python -m jordanflow.cli reproduce --json` per item."""

    name = "tables"

    def __init__(self, seed: int, tracer):
        self.tracer = tracer

    def setup(self) -> None:
        self.printed = {name: (jf.builtin(name).dim, jf.builtin(name).expected_beta,
                               jf.builtin(name).distinguished) for name in jf.names()}

    def make_round(self, r: int) -> list[Item]:
        return [Item("reproduce", 4, None, {})]  # the command takes no input; the seed is unused

    def run_item(self, item: Item) -> dict:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "jordanflow.cli", "reproduce", "--json"]
            spans_path = None
        else:
            OUT.mkdir(exist_ok=True)
            fd, spans_path = tempfile.mkstemp(prefix="cli-spans-", suffix=".jsonl", dir=OUT)
            os.close(fd)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), spans_path,
                   "reproduce", "--json"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            if spans_path is not None:
                self.tracer.adopt(spans.load(spans_path))
        finally:
            if spans_path is not None:
                os.unlink(spans_path)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"reproduce exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(lines[-1])

    def check_item(self, item: Item, payload: dict) -> list[str]:
        return oracle.check_tables(payload, self.printed)


WORKLOADS = {cls.name: cls for cls in (Tables, Flows, Classify)}
