"""Spans and counts at the boundaries of the six `lipsets` modules.

`Tracer.install` replaces the public functions and methods listed in
`TRACED` with wrappers, in every loaded `lipsets` module that holds them
(so calls between modules are traced too); `uninstall` puts the originals
back.  A wrapper records a span (id, name, start, end, parent id) and adds the
span's duration minus the time its child spans cover to the name's self
time.  Spans stay in memory, up to SPAN_CAP of them, and `dump` writes
them out at the end of a run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 100_000

# (metric prefix, module, attribute path)
TRACED = [
    ("intervals.construct", "intervals", "IntervalSet.__init__"),
    ("intervals.intersect", "intervals", "IntervalSet.intersect"),
    ("intervals.measure", "intervals", "IntervalSet.measure"),
    ("pcw.eval", "pcw", "PiecewiseLinear.__call__"),
    ("pcw.add", "pcw", "PiecewiseLinear.add"),
    ("pcw.restrict", "pcw", "PiecewiseLinear.restrict"),
    ("pcw.simplify", "pcw", "PiecewiseLinear.simplify"),
    ("pcw.min_max", "pcw", "pl_min"),
    ("pcw.min_max", "pcw", "pl_max"),
    ("pcw.monotone_runs", "pcw", "monotone_runs"),
    ("pcw.signed_integral", "pcw", "build_signed_integral"),
    ("density.membership", "density", "level_set_membership"),
    ("density.one_sided_measure", "density", "one_sided_measure"),
    ("density.level_set", "density", "level_set"),
    ("density.weakly_dense", "density", "check_weakly_dense_at"),
    ("density.strongly_one_sided", "density", "check_strongly_one_sided_dense_at"),
    ("constructions.balance_point", "constructions", "balance_point"),
    ("constructions.small_lip_blocks", "constructions", "small_lip_blocks"),
    ("constructions.small_lip", "constructions", "build_small_lip"),
    ("constructions.lip1_sum", "constructions", "build_lip1_sum"),
    ("constructions.monotone_conditions", "constructions", "check_monotone_conditions"),
    ("constructions.ternary", "constructions", "check_ternary"),
    ("envelopes.refine", "envelopes", "envelope_refine"),
    ("envelopes.flatten", "envelopes", "envelope_flatten"),
    ("envelopes.verify_contraction", "envelopes", "verify_contraction"),
    ("envelopes.min_margin", "envelopes", "Envelope.min_margin_on"),
    ("udt.build", "udt", "build_udt_lip1"),
    ("udt.witness_search", "udt", "stage_witness_search"),
    ("udt.persistence", "udt", "UdtBuildResult.persistence_ok"),
    ("udt.vicinity", "udt", "UdtBuildResult.vicinity_chain_ok"),
]


def _max_denominator_bits(f) -> int:
    return max(x.denominator.bit_length() for x in f.breakpoints + f.values)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> loaded lipsets module
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.spans_seen = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._stack: list[list] = []

    def reset(self) -> None:
        self.spans.clear()
        self.spans_seen = 0
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()

    # -- patching -------------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place to patch."""
        if self._patches:
            return self._patches
        for name, mod, path in TRACED:
            owner = self.modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            owners = [owner] if isinstance(owner, type) else [
                m for m in self.modules.values() if vars(m).get(attr) is original]
            self._patches.extend((o, attr, original, wrapper) for o in owners)
        return self._patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan():
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        # counts read from a result live in _observe_<name, dots as underscores>
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = tracer.spans_seen
            tracer.spans_seen = index + 1
            frame = [perf_counter(), 0.0, name, index]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if index < SPAN_CAP:
                    spans.append((index, name_id, frame[0], end, parent))
            if observe is not None:
                observe(out, args)
            return out

        return wrapper

    # -- counts read from results --------------------------------------------

    def _under(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def _observe_density_one_sided_measure(self, out, args) -> None:
        if self._under("density.membership"):
            self.counts["density.ratio_evals"] += 1

    def _observe_constructions_small_lip_blocks(self, blocks, args) -> None:
        self.counts["constructions.small_lip_blocks.blocks"] += len(blocks)
        self.counts["constructions.small_lip_blocks.blocks_with_mass"] += sum(
            1 for b in blocks if b.left_mass + b.right_mass > 0)

    def _observe_envelopes_refine(self, res, args) -> None:
        self.counts["envelopes.refine.blocks"] += res.blocks

    def _observe_envelopes_flatten(self, res, args) -> None:
        self.counts["envelopes.flatten.components"] += len(res.components)

    def _observe_udt_build(self, res, args) -> None:
        for f in res.stages:
            self.maxima["udt.max_stage_breakpoints"] = max(
                self.maxima["udt.max_stage_breakpoints"], len(f.breakpoints))
            self.maxima["udt.max_denominator_bits"] = max(
                self.maxima["udt.max_denominator_bits"], _max_denominator_bits(f))

    # -- output -----------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names, "spans_seen": self.spans_seen,
                       "span_fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def loaded_modules() -> dict:
    return {name.rsplit(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("lipsets.")}
