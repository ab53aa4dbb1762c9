"""Per-layer tracing from outside the program.

While installed, a Tracer replaces public functions and methods of the
esymfano modules with wrappers.  A span wrapper times each call and
charges its duration to the enclosing span, so each layer gets a total
and a self time; a count wrapper only counts calls.  A few wrappers also
measure the work a call did (term pairs multiplied, matrix cells reduced,
coefficient sizes).  Spans are aggregated by name in memory rather than
kept one by one, because a single xcheck makes millions of them.
uninstall() restores every replaced attribute.
"""

from __future__ import annotations

import time
from collections import Counter

import esymfano
from esymfano import cli, fano, fields, invariants, linalg, poly

MODULES = (esymfano, cli, fano, fields, invariants, linalg, poly)

# (owner, attribute, span name); several attributes may share a name.  The
# spans no metric reports (cross_check, chart_equations, generation_check)
# keep those drivers' own work out of cli.self_s.
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "parse_matrix_document", "cli.parse"),
    (cli, "emit", "cli.emit"),
    (poly, "format_polynomial", "poly.format"),
    (poly, "format_monomial", "poly.format"),
    (fano, "classify", "fano.classify"),
    (fano, "is_member_direct", "fano.is_member_direct"),
    (fano, "membership_expansion", "fano.membership_expansion"),
    (fano, "cross_check", "fano.cross_check"),
    (fano, "fano_chart_equations", "fano.chart_equations"),
    (fano.PlaneMatrix, "__post_init__", "fano.plane_matrix"),
    (invariants, "close_group", "invariants.close_group"),
    (invariants.GroupAction, "__post_init__", "invariants.group_validate"),
    (invariants, "invariant_dim", "invariants.invariant_dim"),
    (invariants, "orbit_chern_generators", "invariants.orbit_chern_generators"),
    (invariants, "generation_check", "invariants.generation_check"),
)

COUNTS = (
    (fields.RationalField, "add", "fields.add"),
    (fields.PrimeField, "add", "fields.add"),
    (fields.RationalField, "mul", "fields.mul"),
    (fields.PrimeField, "mul", "fields.mul"),
    (fields.RationalField, "inv", "fields.inv"),
    (fields.PrimeField, "inv", "fields.inv"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (invariants, "reynolds", "invariants.reynolds"),
)


def _coeff_bits(c):
    if isinstance(c, int):
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Call counts, span times and work measures, gathered while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()  # inclusive seconds per span name
        self.child = Counter()  # seconds covered by directly nested spans
        self.counts = Counter()
        self.peaks = Counter()
        self._stack = []  # one [seconds of child spans] cell per open span
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        stack, calls, total, child = self._stack, self.calls, self.total, self.child

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            cell = [0.0]
            stack.append(cell)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += cell[0]
                if stack:
                    stack[-1][0] += dt
            if after:
                after(args, result, state)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator_span(self, name, fn):
        """Times each resumption of a generator as a span."""
        timed_next = self.span(name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- the layer-specific measurements -----------------------------------

    def _after_mul(self, args, result, state):
        a, b = args
        self.counts["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)
        self.peaks["poly.mul.peak_terms"] = max(self.peaks["poly.mul.peak_terms"], len(result.terms))

    def _after_expansion(self, args, result, state):
        bits = max((_coeff_bits(c) for c in result.terms.values()), default=0)
        self.peaks["poly.expansion.max_coeff_bits"] = max(
            self.peaks["poly.expansion.max_coeff_bits"], bits
        )

    def _before_rref(self, args):
        rows = args[0]
        self.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _before_subalgebra(self, args):
        return self.calls["poly.mul"]

    def _after_subalgebra(self, args, result, mul_calls_before):
        self.counts["invariants.subalgebra.products"] += self.calls["poly.mul"] - mul_calls_before

    def _wrap_parser(self, args, parser, state):
        parser.parse_args = self.span("cli.parse", parser.parse_args)

    # -- install / uninstall ------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        """Point every reference to owner.attr in the esymfano modules (or the
        class attribute, for a method) at wrapper."""
        original = getattr(owner, attr)
        holders = [owner] if isinstance(owner, type) else [
            mod for mod in MODULES if getattr(mod, attr, None) is original
        ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self.span(name, getattr(owner, attr)))
        for owner, attr, name in COUNTS:
            self._replace(owner, attr, self.count(name, getattr(owner, attr)))
        hooked = (
            (poly.Polynomial, "__mul__", "poly.mul", None, self._after_mul),
            (poly, "esym_almost_top", "poly.expansion", None, self._after_expansion),
            (linalg, "rref", "linalg.rref", self._before_rref, None),
            (invariants, "subalgebra_graded_dims", "invariants.subalgebra_graded_dims",
             self._before_subalgebra, self._after_subalgebra),
            (cli, "build_parser", "cli.parse", None, self._wrap_parser),
        )
        for owner, attr, name, before, after in hooked:
            self._replace(owner, attr, self.span(name, getattr(owner, attr), before, after))
        self._replace(
            fano, "enumerate_subspaces",
            self.generator_span("fano.enumerate_subspaces", fano.enumerate_subspaces),
        )

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self, scale, overhead_frac):
        """Every per-layer metric the traced run reports, with every time
        multiplied by scale."""
        c = self.calls
        t = Counter({name: seconds * scale for name, seconds in self.total.items()})
        child = Counter({name: seconds * scale for name, seconds in self.child.items()})
        planes = c["fano.classify"]
        values = {
            "poly.expansion.calls": (c["poly.expansion"], "count"),
            "poly.expansion.s": (t["poly.expansion"], "s"),
            "poly.expansion.max_coeff_bits": (self.peaks["poly.expansion.max_coeff_bits"], "bits"),
            "poly.mul.calls": (c["poly.mul"], "count"),
            "poly.mul.self_s": (t["poly.mul"] - child["poly.mul"], "s"),
            "poly.mul.term_pairs": (self.counts["poly.mul.term_pairs"], "count"),
            "poly.mul.peak_terms": (self.peaks["poly.mul.peak_terms"], "count"),
            "poly.format.s": (t["poly.format"], "s"),
            "fano.expansions_per_plane": (
                c["fano.membership_expansion"] / planes if planes else 0, "ratio"
            ),
            "fano.classify.s": (t["fano.classify"], "s"),
            "fano.is_member_direct.s": (t["fano.is_member_direct"], "s"),
            "fano.plane_matrix.calls": (c["fano.plane_matrix"], "count"),
            "fano.plane_matrix.s": (t["fano.plane_matrix"], "s"),
            "fano.enumerate_subspaces.s": (t["fano.enumerate_subspaces"], "s"),
            "linalg.rref.calls": (c["linalg.rref"], "count"),
            "linalg.rref.cells": (self.counts["linalg.rref.cells"], "count"),
            "linalg.rref.s": (t["linalg.rref"], "s"),
            "linalg.mat_mul.calls": (c["linalg.mat_mul"], "count"),
            "fields.add.calls": (c["fields.add"], "count"),
            "fields.mul.calls": (c["fields.mul"], "count"),
            "fields.inv.calls": (c["fields.inv"], "count"),
            "invariants.close_group.s": (t["invariants.close_group"], "s"),
            "invariants.group_validate.s": (t["invariants.group_validate"], "s"),
            "invariants.invariant_dim.s": (t["invariants.invariant_dim"], "s"),
            "invariants.reynolds.calls": (c["invariants.reynolds"], "count"),
            "invariants.subalgebra_graded_dims.s": (t["invariants.subalgebra_graded_dims"], "s"),
            "invariants.subalgebra.products": (self.counts["invariants.subalgebra.products"], "count"),
            "invariants.orbit_chern_generators.s": (t["invariants.orbit_chern_generators"], "s"),
            "cli.parse.s": (t["cli.parse"], "s"),
            "cli.emit.s": (t["cli.emit"], "s"),
            "cli.self_s": (t["cli.main"] - child["cli.main"], "s"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
