"""Per-layer metrics from the spans of a traced round.

A span's self time is its duration minus the durations of its direct
child spans; its self RSS growth is the rise of the process's peak RSS
over the span minus the rises over its children. A set of functions'
"entry" spans are those with no ancestor in the same set, so their
durations add up to the time spent in that set without double counting.
"""

from __future__ import annotations

import json

from spans import LAYERS

DRAW = {f"samplers.{n}" for n in (
    "sample_real_pure", "sample_complex_pure", "sample_density", "sample_unitary",
    "sample_unitary_params", "unitaries_from_params")}
REGION = {"samplers.sample_in_region_batch", "samplers.sample_in_region"}
BATCH = {f"correlation.{n}" for n in ("cc_pvector_batch", "cc_pvector_pure_batch",
                                       "dc_pvector_batch")}
VALIDATE = {f"qmath.{n}" for n in ("is_unitary", "is_density", "is_unit_vector",
                                   "require_unitary", "require_density", "require_state")}
MEMBERSHIP = {f"geometry.{n}" for n in ("contains", "in_overlap", "in_otc", "in_otd")}
MULTISTART = {"bounds.multistart_state_extremum", "bounds.multistart_unitary_extremum"}


class Spans:
    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        names = raw["functions"]
        rows = raw["spans"]
        self.func = [names[r[0]] for r in rows]
        self.layer = [f.split(".", 1)[0] for f in self.func]
        self.parent = [r[1] for r in rows]
        self.dur = [r[3] - r[2] for r in rows]
        rise = [(r[5] - r[4]) / 1024.0 for r in rows]
        self.count = [r[6] for r in rows]
        self.self_s = list(self.dur)
        self.self_rise = list(rise)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.self_s[p] -= self.dur[i]
                self.self_rise[p] -= rise[i]

    def member(self, funcs) -> list[bool]:
        return [f in funcs for f in self.func]

    def below(self, mask: list[bool]) -> list[bool]:
        """Whether each span has an ancestor for which ``mask`` holds."""
        out = [False] * len(mask)
        for i, p in enumerate(self.parent):  # a parent is recorded before its children
            if p >= 0:
                out[i] = mask[p] or out[p]
        return out

    def entries(self, funcs) -> list[int]:
        mask = self.member(funcs)
        under = self.below(mask)
        return [i for i, m in enumerate(mask) if m and not under[i]]

    def entry_time(self, funcs) -> float:
        return sum(self.dur[i] for i in self.entries(funcs))

    def in_layer(self, layer: str) -> set:
        return {f for f in set(self.func) if f.startswith(layer + ".")}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def import_times(stderr_text: str) -> tuple[float, float]:
    """(scipy, qcausal without scipy) import seconds from ``-X importtime`` lines.

    The lines come children first; read backwards, each entry's ancestors
    are the entries on the stack with a smaller indent.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip(" "))
        entries.append((indent, int(cumulative), name.strip()))

    def outermost(pkg: str, name: str, ancestors: list[str]) -> bool:
        inside = lambda n: n == pkg or n.startswith(pkg + ".")
        return inside(name) and not any(inside(a) for a in ancestors)

    scipy_us = qcausal_us = 0
    stack: list[tuple[int, str]] = []
    for indent, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        ancestors = [n for _, n in stack]
        if outermost("scipy", name, ancestors):
            scipy_us += cumulative
        if outermost("qcausal", name, ancestors):
            qcausal_us += cumulative
        stack.append((indent, name))
    return scipy_us / 1e6, (qcausal_us - scipy_us) / 1e6


def layer_metrics(spans: Spans, import_stderr: str, work_s: float, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where the layer does no work."""
    scipy_s, qcausal_s = import_times(import_stderr)
    m = {"setup.scipy_import_s": scipy_s, "setup.qcausal_import_s": qcausal_s}

    draw_entries = spans.entries(DRAW)
    region = spans.member({"samplers.sample_in_region_batch"})
    in_region = spans.below(region)
    drawn_in_region = sum(spans.count[i] for i in draw_entries if in_region[i])
    accepted = sum(spans.count[i] for i in spans.entries({"samplers.sample_in_region_batch"}))
    m["samplers.draw_s"] = sum(spans.dur[i] for i in draw_entries)
    m["samplers.objects_drawn"] = sum(spans.count[i] for i in draw_entries)
    m["samplers.region_accept_ratio"] = _ratio(accepted, drawn_in_region)
    m["samplers.region_self_s"] = sum(
        spans.self_s[i] for i, f in enumerate(spans.func) if f in REGION)

    def rss_growth(layer):
        return sum(r for r, lay in zip(spans.self_rise, spans.layer) if lay == layer)

    m["samplers.rss_growth_mb"] = rss_growth("samplers")

    batch_entries = spans.entries(BATCH)
    m["correlation.batch_s"] = sum(spans.dur[i] for i in batch_entries)
    m["correlation.batch_points_per_s"] = _ratio(
        sum(spans.count[i] for i in batch_entries), m["correlation.batch_s"])
    scalar = spans.in_layer("correlation") - BATCH
    m["correlation.scalar_s"] = spans.entry_time(scalar)
    m["correlation.scalar_calls"] = sum(spans.member(scalar))

    m["qmath.validate_s"] = spans.entry_time(VALIDATE)
    m["qmath.validate_calls"] = sum(spans.member(VALIDATE))

    geometry = spans.member(spans.in_layer("geometry"))
    under_geometry = spans.below(geometry)
    m["geometry.classify_batch_s"] = spans.entry_time({"geometry.classify_batch"})
    m["geometry.rss_growth_mb"] = rss_growth("geometry")
    m["geometry.membership_s"] = sum(
        d for d, f, u in zip(spans.dur, spans.func, under_geometry) if f in MEMBERSHIP and not u)
    m["geometry.classify_s"] = spans.entry_time({"geometry.classify"})

    m["bounds.grid_s"] = spans.entry_time({"bounds.grid_extremum"})
    m["bounds.polish_s"] = spans.entry_time({"bounds.polish_extremum"})
    multistart = spans.entries(MULTISTART)
    m["bounds.multistart_s"] = sum(spans.dur[i] for i in multistart)
    m["bounds.starts_per_s"] = _ratio(
        sum(spans.count[i] for i in multistart), m["bounds.multistart_s"])

    m["basis_change.escape_self_s"] = sum(
        s for s, f in zip(spans.self_s, spans.func) if f == "basis_change.escape_experiment")
    m["basis_change.search_s"] = spans.entry_time({"basis_change.search_escape_v"})
    in_search = spans.below(spans.member({"basis_change.search_escape_v"}))
    m["basis_change.search_tries"] = sum(
        1 for i in draw_entries if in_search[i] and spans.func[i] == "samplers.sample_unitary")

    m["cli.encode_write_s"] = sum(
        s for s, f in zip(spans.self_s, spans.func) if f == "cli.run_sample")
    m["cli.rss_growth_mb"] = rss_growth("cli")
    m["cli.csv_bytes"] = sum(
        c for c, f in zip(spans.count, spans.func) if f == "cli.run_sample")
    m["cli.load_document_s"] = spans.entry_time({"cli.load_document"})
    m["cli.report_s"] = spans.entry_time({"cli._emit"})
    m["trace.overhead_s"] = overhead_s

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for s, lay in zip(spans.self_s, spans.layer) if lay == layer)
    m["trace.self_sum_s"] = sum(spans.self_s)
    m["trace.work_s"] = work_s
    return m
