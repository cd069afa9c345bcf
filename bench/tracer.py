"""Out-of-library tracing for the normforge benchmark.

The tracer wraps public functions of the ``normforge`` modules from the
outside.  Each call becomes a span (id, parent id, name, start, end) kept
in memory; a layer's time is the sum of its functions' *self* times, a
span's duration minus the time its child spans cover, so nested calls
are never counted twice.  Counters are read from the values the wrapped
functions return, so they are exact and repeat from run to run.

Pitfall handled here: ``from .laurent import poly_matrix_det`` binds a
second name in ``alexander`` and in ``braid`` (likewise for ``bns``,
``brown`` and ``cli``).  Patching only the defining module would leave
those names pointing at the original and silently move the layer's time
into its caller, so :func:`instrument` replaces every module attribute
that *is* the original function object.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer metric -> the (module, function) pairs whose self time it sums.
# Small helpers called in inner loops (primitive, cone_contains, ...) are
# not wrapped; their time stays with the calling layer.
#
# Where each layer works (and where a change to it should show no effect):
# det and minors on braid-torus (control relator-2gen, whose minors are
# 1x1); gcd on relator-2gen and link-rank3 (control braid-torus); Fox
# derivatives, parsing, checks, cones and Brown paths on relator-2gen;
# the dimension-3 hull on link-rank3 (control braid-torus); the Burau
# route and abelianization on braid-torus (control relator-2gen).
LAYERS = {
    "words.parse_s": [("words", "parse_word"), ("words", "parse_presentation_text")],
    "words.abelianize_s": [("words", "smith_normal_form"), ("words", "free_abelianization")],
    "alexander.fox_s": [("alexander", "fox_derivative"), ("alexander", "alexander_matrix")],
    "alexander.minors_s": [("alexander", "elementary_ideal")],
    "alexander.data_s": [("alexander", "alexander_data"), ("alexander", "alexander_polynomial")],
    "alexander.check_s": [("alexander", "check_symmetry"), ("alexander", "check_e1_structure"),
                          ("alexander", "check_fundamental_identity")],
    "laurent.det_s": [("laurent", "poly_matrix_det")],
    "laurent.gcd_s": [("laurent", "gcd"), ("laurent", "gcd_many")],
    "laurent.other_s": [("laurent", name) for name in (
        "divide_exact", "equal_up_to_unit", "normalize_unit", "unit_quotient", "unit_inverse",
        "exponent_map", "invert_variables", "substitute", "poly_to_text", "parse_poly")],
    "polytope.hull_s": [("polytope", "newton_polytope"), ("polytope", "lattice_polytope"),
                        ("polytope", "hull_vertices"), ("polytope", "point_in_hull")],
    "polytope.dual_s": [("polytope", "balance_center"), ("polytope", "dual_ball"),
                        ("polytope", "alexander_norm")],
    "bns.sigma_s": [("bns", "sigma_alexander"), ("bns", "sigma_principal")],
    "bns.arcs_s": [("bns", "rank2_arcs"), ("bns", "cone_arc")],
    "bns.compare_s": [("bns", "compare_sigma")],
    "brown.path_s": [("brown", "trace_relator"), ("brown", "simple_vertices"), ("brown", "brown_sigma")],
    "braid.burau_s": [("braid", "burau")],
    "braid.delta_s": [("braid", "mapping_torus_delta")],
    "braid.presentation_s": [("braid", "mapping_torus_presentation"), ("braid", "braid_action")],
    "braid.fox_route_s": [("braid", "mapping_torus_delta_fox")],
    "braid.other_s": [("braid", "parse_braid"), ("braid", "permutation"), ("braid", "is_n_cycle")],
    "cli.render_s": [("cli", name) for name in (
        "cmd_alexander", "cmd_norm", "cmd_norm_ball", "cmd_sigma_a", "cmd_sigma_brown", "cmd_burau",
        "cmd_mapping_torus", "cmd_compare_question_b", "cmd_check", "cmd_examples")],
}


def _adder(counter: str, size):
    def hook(tracer, args, result):
        tracer.counts[counter] += size(args, result)
    return hook


def _bits_max(tracer, args, result):
    bits = max((abs(c).bit_length() for c in result.terms.values()), default=0)
    tracer.counts["laurent.coeff_bits_max"] = max(tracer.counts["laurent.coeff_bits_max"], bits)


# (module, function) -> hooks that read exact sizes off each call's
# arguments and result.  Call counts are recorded for every wrapped function.
COUNTERS = {
    ("laurent", "poly_matrix_det"): [_bits_max],
    ("laurent", "gcd"): [_bits_max],
    ("laurent", "gcd_many"): [_bits_max],
    ("alexander", "alexander_data"): [
        _adder("laurent.delta_terms", lambda a, r: len(r.polynomial.terms))],
    ("alexander", "elementary_ideal"): [
        _adder("alexander.minor_count", lambda a, r: len(r.generators))],
    ("alexander", "alexander_matrix"): [
        _adder("alexander.matrix_terms", lambda a, r: sum(len(e.terms) for row in r.entries for e in row))],
    ("words", "parse_presentation_text"): [
        _adder("words.letters", lambda a, r: sum(len(w) for w in r.presentation.relators))],
    ("polytope", "hull_vertices"): [
        _adder("polytope.hull_points", lambda a, r: len({tuple(p) for p in a[0]})),
        _adder("polytope.hull_vertices", lambda a, r: len(r))],
    ("bns", "sigma_principal"): [_adder("bns.components", lambda a, r: len(r.components))],
    ("brown", "brown_sigma"): [_adder("bns.components", lambda a, r: len(r.components))],
    ("bns", "compare_sigma"): [_adder("bns.uncertified", lambda a, r: sum(not c.certified for c in r))],
    ("brown", "trace_relator"): [_adder("brown.path_points", lambda a, r: len(r.points))],
}
# Exact counters reported per traced pass: call counts, then sizes.
CALL_COUNTERS = {
    "laurent.det_calls": "laurent.poly_matrix_det",
    "laurent.gcd_calls": "laurent.gcd",
    "polytope.lp_calls": "polytope.point_in_hull",
}
SIZE_COUNTERS = (
    "laurent.coeff_bits_max", "laurent.delta_terms", "alexander.minor_count",
    "alexander.matrix_terms", "words.letters", "polytope.hull_points", "polytope.hull_vertices",
    "bns.components", "bns.uncertified", "brown.path_points",
)


class Tracer:
    """Records spans and counters in memory; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id or None, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hooks=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.calls[name] += 1
            for hook in hooks:
                hook(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _parent, name, start, end in self.spans:
            out[name] += (end - start) - covered[span_id]
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _id, parent, _n, start, end in self.spans if parent is None)

    def layer_times(self) -> dict[str, float]:
        own = self.self_times()
        return {layer: sum(own.get(f"{mod}.{fn}", 0.0) for mod, fn in funcs)
                for layer, funcs in LAYERS.items()}

    def counters(self) -> dict[str, int]:
        out = {name: self.calls.get(span, 0) for name, span in CALL_COUNTERS.items()}
        out.update({name: self.counts.get(name, 0) for name in SIZE_COUNTERS})
        return out


@contextmanager
def instrument(tracer: Tracer):
    """Patch every name bound to a traced function, in every loaded ``normforge`` module.

    The original functions are restored on exit, also after an error.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "normforge" or name.startswith("normforge."))]
    patched: list[tuple[object, str, object]] = []
    try:
        for funcs in LAYERS.values():
            for mod_name, fn_name in funcs:
                original = getattr(sys.modules[f"normforge.{mod_name}"], fn_name)
                wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original,
                                      COUNTERS.get((mod_name, fn_name), ()))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
