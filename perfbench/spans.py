"""Spans around jordanflow's public functions, recorded from outside the program.

install() replaces every public function of the traced modules by a timing
wrapper, in its own module and in every jordanflow module that imported it
by name, so that calls between modules are seen too.  Spans stay in memory
(one list per Tracer) and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

# The program's layers, in the order they are reported.
MODULES = ("algebra", "moment", "flow", "stratify", "snap", "catalog", "cli")
# Functions of modules without (or outside) an __all__ that the program calls.
EXTRA = {"cli": ("main",), "snap": ("snap_fraction", "group_values", "snap_spectrum", "format_fraction")}

SETUP = -1  # round index of spans recorded during set-up


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    item: int | None
    round: int
    start: float
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def to_json(self) -> dict:
        return {"name": self.name, "id": self.sid, "parent": self.parent, "item": self.item,
                "round": self.round, "start": self.start, "end": self.end,
                "self_s": self.self_s, "attrs": self.attrs}


def _flow_attrs(args, result) -> dict:
    return {"dim": args[0].dim, "steps": result.steps_taken, "stop": result.stop_reason}


def _mnp_attrs(args, result) -> dict:
    return {"major_cycles": result.major_cycles}


ATTRS = {"flow.run_flow": _flow_attrs, "stratify.min_norm_point": _mnp_attrs}


class Tracer:
    """Records spans while active; item and round tag each span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.adopted: list[dict] = []   # span records of child processes
        self.stack: list[Span] = []
        self.next_id = 0
        self.active = False
        self.item: int | None = None
        self.round = SETUP

    def _open(self, name: str) -> Span:
        span = Span(name, self.next_id, self.stack[-1].sid if self.stack else None,
                    self.item, self.round, time.perf_counter())
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own around a block, recorded while active."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module, wherever they are bound."""
        import jordanflow

        mods = {name: importlib.import_module(f"jordanflow.{name}") for name in MODULES}
        holders = [jordanflow, *mods.values()]
        for short, mod in mods.items():
            for fname in (*getattr(mod, "__all__", ()), *EXTRA.get(short, ())):
                fn = getattr(mod, fname, None)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self.wrap(f"{short}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)

    def adopt(self, records: list[dict]) -> None:
        """Take the span records of a child process as part of the current item."""
        offset = self.next_id
        for rec in records:
            self.adopted.append({**rec, "id": rec["id"] + offset, "item": self.item,
                                 "round": self.round,
                                 "parent": None if rec["parent"] is None else rec["parent"] + offset})
        self.next_id += len(records)

    def records(self, rounds=None) -> list[dict]:
        """Own and adopted span records, of the given rounds or of all."""
        recs = [span.to_json() for span in self.spans] + self.adopted
        return [rec for rec in recs if rounds is None or rec["round"] in rounds]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for rec in self.records():
                handle.write(json.dumps(rec) + "\n")


def load(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --- per-layer metrics ------------------------------------------------------------

# Functions whose calls and self time are reported, by module.
REPORTED = {
    "flow": ("run_flow", "clean_limit"),
    "moment": ("soliton_check", "soliton_type", "energy_gradient"),
    "algebra": ("derivation_algebra", "centroid", "is_decomposable", "power_dims", "radical",
                "annihilator", "product_rank", "has_unit", "is_associative", "jordan_defect"),
    "stratify": ("beta_mu", "min_norm_point"),
    "snap": ("snap_spectrum",),
    "catalog": ("fingerprint", "match"),
}
STEP_DIMS = (2, 4, 6, 8)
STOPS = ("gradient", "line_search_floor", "plateau")


def layer_metrics(records: list[dict], traced_s: float) -> dict:
    """Per-layer figures from span records covering traced_s seconds of timed work.

    Returns {name: (value, unit, better)}; a figure with nothing to measure
    (no flow at that n, say) reads 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rec in records:
        calls[rec["name"]] = calls.get(rec["name"], 0) + 1
        self_s[rec["name"]] = self_s.get(rec["name"], 0.0) + rec["self_s"]
    out: dict[str, tuple] = {}
    flows = [rec for rec in records if rec["name"] == "flow.run_flow"]

    def step_us(recs) -> float:
        steps = sum(rec["attrs"].get("steps", 0) for rec in recs)
        return 1e6 * sum(rec["self_s"] for rec in recs) / steps if steps else 0.0

    for module, fnames in REPORTED.items():
        for fname in fnames:
            key = f"{module}.{fname}"
            out[f"{key}.calls"] = (calls.get(key, 0), "count", "lower")
            out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s", "lower")
        if module == "flow":
            out["flow.steps"] = (sum(rec["attrs"].get("steps", 0) for rec in flows), "count", "lower")
            out["flow.step_us"] = (step_us(flows), "us", "lower")
            for n in STEP_DIMS:
                out[f"flow.step_us.n{n}"] = (
                    step_us([rec for rec in flows if rec["attrs"].get("dim") == n]), "us", "lower")
            for stop in STOPS:
                out[f"flow.stop.{stop}"] = (
                    sum(rec["attrs"].get("stop") == stop for rec in flows), "count",
                    "higher" if stop == "gradient" else "lower")
        if module == "stratify":
            out["stratify.major_cycles"] = (
                sum(rec["attrs"].get("major_cycles", 0) for rec in records
                    if rec["name"] == "stratify.min_norm_point"), "count", "lower")
    out["moment.soliton_type.snap_errors"] = (
        sum(rec["attrs"].get("raised") == "RationalSnapError" for rec in records
            if rec["name"] == "moment.soliton_type"), "count", "lower")
    out["catalog.build_s"] = (
        sum(rec["end"] - rec["start"] for rec in records if rec["name"] == "catalog.build"), "s", "lower")
    out["catalog.reproduce_tables.self_s"] = (self_s.get("catalog.reproduce_tables", 0.0), "s", "lower")
    out["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s", "lower")
    shares = 0.0
    for module in MODULES:
        share = sum(v for k, v in self_s.items() if k.startswith(module + ".")) / traced_s
        shares += share
        out[f"{module}.share"] = (share, "fraction", "lower")
    out["untraced.share"] = (1.0 - shares, "fraction", "lower")
    return out
