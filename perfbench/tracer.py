"""Spans and counts recorded around hoshell's public functions, from outside
the package.

Each function is replaced, for the duration of a traced round, at the name
its caller looks it up under (`hoshell.cli.pert_dos`,
`hoshell.dos.modulation_quadrature`, `hoshell.ebk.radial_action`, ...).  A
span is (job, name, start, end, parent); spans stay in flat arrays in memory
and are written out once the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.

The package is single-threaded and no layer queues or waits, so the layers
have busy time and work counts but no wait time.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from time import perf_counter

import hoshell.actionpoly as actionpoly
import hoshell.cli as cli
import hoshell.dos as dos
import hoshell.ebk as ebk
import hoshell.modfactor as modfactor
import hoshell.specfun as specfun


def kummer_branch(b, z) -> str:
    """The branch of specfun.kummer_1f1 that (b, z) dispatches to."""
    z = complex(z)
    az = abs(z)
    if z == 0 or abs(b - 1.0) < 1e-14:
        return "other"
    if az <= 10.0 or az <= 0.5 * b:
        return "series"
    if abs(b - round(b)) < 1e-12:
        return "int_b"
    if az >= 35.0:
        return "asym"
    on_axis = abs(z.real) <= 1e-13 * az or (abs(z.imag) <= 1e-13 * az and z.real > 0)
    if abs(2 * b - round(2 * b)) < 1e-12 and on_axis:
        return "half_int_axis"
    return "other"


def _count_kummer(counts, args, kwargs, result):
    counts["specfun.kummer_1f1.calls." + kummer_branch(*args[:2])] += 1


def _count_points(counts, args, kwargs, result):
    counts["actionpoly.scaled_value.points"] += math.prod(getattr(args[1], "shape", ()))


def _count_nodes(counts, args, kwargs, result):
    counts["specfun.on_panels.nodes"] += len(result[0])


def _count_levels(counts, args, kwargs, result):
    counts["ebk.levels_kept"] += len(result)


def _count_gaussians(counts, args, kwargs, result):
    g, _, levels = result
    counts["ebk.gaussians"] += len(levels) * len(g)


# (owner, attribute, span name, extra counter, record a span)
TARGETS = [
    (cli, "main", "cli.main", None, True),
    (cli, "pert_dos", "dos.pert_dos", None, True),
    (cli, "enumerate_levels", "ebk.enumerate_levels", _count_levels, True),
    (cli, "ebk_dos", "ebk.ebk_dos", _count_gaussians, True),
    (dos, "absorb_harmonic_terms", "actionpoly.absorb_harmonic_terms", None, False),
    (dos, "polynomial_delta_s", "actionpoly.polynomial_delta_s", None, True),
    (dos, "modulation_quadrature", "modfactor.modulation_quadrature", None, True),
    (dos, "modulation_closed_form", "modfactor.modulation_closed_form", None, True),
    (modfactor, "kummer_1f1", "specfun.kummer_1f1", _count_kummer, True),
    (actionpoly.ActionPolynomial, "scaled_value", "actionpoly.scaled_value",
     _count_points, True),
    (specfun.QuadratureRule, "on_panels", "specfun.on_panels", _count_nodes, True),
    (ebk, "absorb_harmonic_terms", "actionpoly.absorb_harmonic_terms", None, False),
    (ebk, "enumerate_levels", "ebk.enumerate_levels", _count_levels, True),
    (ebk, "ebk_energy", "ebk.ebk_energy", None, True),
    (ebk, "radial_action", "ebk.radial_action", None, True),
    (ebk, "tf_smooth", "ebk.tf_smooth", None, True),
    (ebk, "outer_turning_point", "ebk.outer_turning_point", None, True),
]


class Tracer:
    """Records one traced round.  Use as a context manager: entering installs
    the wrappers, leaving restores the original functions.  Call start_job()
    before each job so counts can be split per job."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per finished span, in completion order.
        self.span_id = array("l")
        self.name_id = array("i")
        self.job_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.job_counts: dict[int, Counter] = {}
        self._job_start = Counter()
        self.job = -1
        self._stack = [-1]
        self._next_id = 0
        self._saved = []
        self.t0 = perf_counter()

    def start_job(self, index: int) -> None:
        self.finish_job()
        self.job = index
        self._job_start = Counter(self.counts)

    def finish_job(self) -> None:
        if self.job >= 0:
            self.job_counts[self.job] = self.counts - self._job_start

    def _wrap(self, fn, name, extra, spanned):
        calls = name + ".calls"
        raised = name + ".raised."
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counts, stack = self.counts, self._stack
        add_id, add_name, add_job = self.span_id.append, self.name_id.append, self.job_id.append
        add_parent, add_start, add_end = self.parent.append, self.start.append, self.end.append

        def counted(*args, **kwargs):
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[raised + type(exc).__name__] += 1
                raise
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        def traced(*args, **kwargs):
            counts[calls] += 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[raised + type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                add_id(sid)
                add_name(nid)
                add_job(self.job)
                add_parent(parent)
                add_start(t0)
                add_end(t1)
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return traced if spanned else counted

    def __enter__(self):
        for owner, attr, name, extra, spanned in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, extra, spanned))
        return self

    def __exit__(self, *exc):
        self.finish_job()
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration `s` and self time `self_s`."""
        child: dict[int, float] = {}
        for i in range(len(self.span_id)):
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.span_id)):
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(self.names[self.name_id[i]], {"s": 0.0, "self_s": 0.0})
            agg["s"] += dur
            agg["self_s"] += dur - child.get(self.span_id[i], 0.0)
        return out

    def write_spans(self, stream, round_index: int, job_names: list[str]) -> None:
        """CSV rows round,job,span,parent,name,start_s,end_s; times are
        seconds from the start of the round."""
        for i in sorted(range(len(self.span_id)), key=self.span_id.__getitem__):
            stream.write(f"{round_index},{job_names[self.job_id[i]]},{self.span_id[i]},"
                         f"{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - self.t0:.7f},{self.end[i] - self.t0:.7f}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, eps_sign: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced round; `eps_sign` maps job index to the
    sign of its perturbation strength."""
    spans = tracer.span_totals()
    counts = tracer.counts

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0)

    out = {
        "cli.self_s": span("cli.main", "self_s"),
        "ebk.ebk_dos.self_s": span("ebk.ebk_dos", "self_s"),
        "ebk.gaussians": counts["ebk.gaussians"],
        "actionpoly.scaled_value.points": counts["actionpoly.scaled_value.points"],
        "specfun.on_panels.nodes": counts["specfun.on_panels.nodes"],
        "actionpoly.absorb_harmonic_terms.calls": counts["actionpoly.absorb_harmonic_terms.calls"],
        "ebk.ebk_energy.no_bound_state": counts["ebk.ebk_energy.raised.NoBoundStateError"],
    }
    for name, keys in (
        ("dos.pert_dos", ("calls", "s", "self_s")),
        ("actionpoly.polynomial_delta_s", ("calls", "s")),
        ("actionpoly.scaled_value", ("s",)),
        ("specfun.on_panels", ("s",)),
        ("modfactor.modulation_quadrature", ("calls", "s", "self_s")),
        ("modfactor.modulation_closed_form", ("calls", "s", "self_s")),
        ("specfun.kummer_1f1", ("s",)),
        ("ebk.enumerate_levels", ("s", "self_s")),
        ("ebk.ebk_energy", ("calls", "s", "self_s")),
        ("ebk.radial_action", ("calls", "s")),
        ("ebk.tf_smooth", ("calls", "s", "self_s")),
        ("ebk.outer_turning_point", ("calls", "s")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = counts[name + ".calls"] if key == "calls" else span(name, key)
    for branch in ("series", "int_b", "half_int_axis", "asym", "other"):
        key = "specfun.kummer_1f1.calls." + branch
        out[key] = counts[key]
    out["ebk.radial_action_per_level"] = _ratio(counts["ebk.radial_action.calls"],
                                                counts["ebk.levels_kept"])
    out["ebk.levels_kept_frac"] = _ratio(counts["ebk.levels_kept"],
                                         counts["ebk.ebk_energy.calls"])
    for tag, sign in (("eps_pos", 1), ("eps_neg", -1)):
        jobs = [c for j, c in tracer.job_counts.items() if eps_sign[j] == sign]
        out[f"ebk.radial_action_per_level.{tag}"] = _ratio(
            sum(c["ebk.radial_action.calls"] for c in jobs),
            sum(c["ebk.levels_kept"] for c in jobs))
    return out
