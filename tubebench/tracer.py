"""Per-layer tracing for the tubecert benchmark.

The tracer wraps public functions of each tubecert module from outside the
package, so the program itself carries no tracing code.  A wrapped function is
replaced at every binding site that holds the same function object:

* the module attribute (``exactla.rref``);
* names other modules imported with ``from ... import`` (``checks`` binds
  ``invariance_certificate`` and the ``catalog`` helpers by name, ``catalog``
  binds ``maps.compose``);
* class aliases (``GaussianRational.__radd__ = __add__``,
  ``HermitianPolynomial.__rmul__ = __mul__``);
* dict values (``checks.HANDLERS`` maps each check kind to its handler).

Spanned functions record ``(span id, name, start, end, parent span id,
request id)``, where the request id is the id of the check being run.  Spans
stay in memory until the pass ends.  A span's self time is its duration minus
the time its child spans cover; busy time (``.s``) is inclusive time, counted
once when a function recurses into itself.  Functions called about a million
times per pass (the Q(i) scalar operators, ``HermitianPolynomial.partial``)
are counted, not timed, because a span per call would swamp the trace.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from workloads import WORKLOADS


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric name, home module, attribute path, what to report.

    ``fields`` lists the reported metrics: ``count`` is the bare call count under
    the target's own name, ``calls``, ``s`` and ``self_s`` are call count, busy
    time and self time under ``<name>.<field>``.  A target is timed with spans
    only when it reports a time.  ``workloads`` names where it must be called
    at least once.
    """

    name: str
    module: str
    attr: str
    fields: tuple[str, ...]
    workloads: tuple[str, ...]

    @property
    def spanned(self) -> bool:
        return "s" in self.fields or "self_s" in self.fields


def _t(name, module, attr, fields, workloads="all"):
    where = WORKLOADS if workloads == "all" else tuple(workloads.split())
    return Target(name, module, attr, tuple(fields.split()), where)


TARGETS = (
    _t("scalars.gr_new", "scalars", "GaussianRational.__init__", "count"),
    _t("scalars.gr_mul", "scalars", "GaussianRational.__mul__", "count"),
    _t("scalars.gr_add", "scalars", "GaussianRational.__add__", "count"),
    _t("scalars.gr_div", "scalars", "GaussianRational.__truediv__", "count"),
    _t("poly.mul", "poly", "HermitianPolynomial.__mul__", "calls s self_s", "pullback"),
    _t("poly.substitute", "poly", "HermitianPolynomial.substitute", "calls s self_s", "pullback"),
    _t("poly.partial", "poly", "HermitianPolynomial.partial", "calls", "levi"),
    _t("poly.evaluate_complex", "poly", "HermitianPolynomial.evaluate_complex",
       "calls s self_s", "levi"),
    _t("maps.pullback", "maps", "pullback", "calls s self_s", "pullback"),
    _t("maps.compose", "maps", "compose", "calls s self_s", "pullback"),
    _t("maps.AffineMapR.compose", "maps", "AffineMapR.compose", "calls s self_s", "levi"),
    _t("maps.certificate", "maps", "equivalence_certificate", "calls", "pullback levi"),
    _t("catalog.make_p_element", "catalog", "make_p_element", "calls s self_s", "pullback"),
    _t("catalog.p_compose", "catalog", "p_compose", "s self_s", "pullback"),
    _t("catalog.p_params_from_map", "catalog", "p_params_from_map", "s self_s", "pullback"),
    _t("catalog.transitive_params_omega", "catalog", "transitive_params_omega",
       "calls s self_s", "levi"),
    _t("catalog.resolve", "catalog", "resolve", "calls s self_s"),
    _t("exactla.rref", "exactla", "rref", "calls s self_s", "elimination"),
    _t("exactla.nullspace", "exactla", "nullspace", "calls s self_s", "elimination"),
    _t("exactla.invert", "exactla", "invert", "s self_s", "elimination"),
    _t("exactla.determinant", "exactla", "determinant", "calls s self_s", "pullback levi"),
    _t("lie.perp", "lie", "perp", "s self_s", "elimination"),
    _t("lie.ad_kernel_dim", "lie", "ad_kernel_dim", "s self_s", "elimination"),
    _t("lie.is_subalgebra", "lie", "is_subalgebra", "s self_s", "elimination"),
    _t("lie.stabilizer_up_to_scale_dim", "lie", "stabilizer_up_to_scale_dim",
       "calls s self_s", "elimination"),
    _t("lie.cayley_group_element", "lie", "cayley_group_element", "calls", "elimination"),
    _t("chern_moser.trace_op", "chern_moser", "trace_op", "calls s self_s", "elimination"),
    _t("chern_moser.normal_form_check", "chern_moser", "normal_form_check", "s self_s",
       "elimination"),
    _t("chern_moser.linear_scaling_check", "chern_moser", "linear_scaling_check", "s self_s",
       "elimination"),
    _t("geometry.levi_form", "geometry", "levi_form", "calls s self_s", "levi"),
    _t("geometry.tube_hessian_signature", "geometry", "tube_hessian_signature",
       "calls s self_s", "levi"),
    _t("geometry.sample_boundary_points", "geometry", "sample_boundary_points", "s self_s",
       "levi"),
    _t("geometry.contains_complex_line", "geometry", "contains_complex_line", "s self_s",
       "levi"),
    _t("cli.parse_config", "cli", "parse_config", "s self_s"),
    _t("cli.resolve_targets", "cli", "resolve_targets", "s self_s"),
)

# One span per check handler, named after the check kind (checks.HANDLERS).
CHECK_KINDS = ("invariance", "transitivity", "levi", "chern_moser", "lie", "line_witness",
               "closure", "rank")

# Metrics derived from what the wrappers record rather than from one field.
DERIVED = (
    ("poly.terms_out_sum", "count", "lower"),
    ("poly.terms_out_max", "count", "lower"),
    ("poly.coeff_bits_max", "bits", "lower"),
    ("maps.certificate.exact_ratio", "ratio", "higher"),
    ("maps.residual_terms", "count", "lower"),
    ("catalog.transitive_params_omega.reject_ratio", "ratio", "lower"),
    ("lie.cayley_group_element.fail_ratio", "ratio", "lower"),
    ("checks.slowest_s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
)

# Written by run.py from whole-pass timings, not by the tracer.
OVERHEAD = (
    ("trace.verify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    table = []
    for target in TARGETS:
        for field in target.fields:
            if field == "count":
                table.append((target.name, "count", "lower"))
            else:
                unit = "count" if field == "calls" else "s"
                table.append((f"{target.name}.{field}", unit, "lower"))
    table += [(f"checks.{kind}.s", "s", "lower") for kind in CHECK_KINDS]
    return table + list(DERIVED) + list(OVERHEAD)


def _coefficient_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        for part in (c.re, c.im):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    """Records spans and counts for one verify pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.sites: dict[str, int] = {}
        self.request: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self.terms_out_sum = 0
        self.terms_out_max = 0
        self.coeff_bits_max = 0
        self.certificates_exact = 0
        self.residual_terms = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, spanned, on_result=None, counted_error=(), request=False):
        calls, raised = self.calls, self.raised

        def counting_errors(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except counted_error:
                raised[name] += 1
                raise

        run = counting_errors if counted_error else fn

        def wrapper(*args, **kwargs):
            if spanned:
                with self.region(name, args[0].id if request else None):
                    result = run(*args, **kwargs)
            else:
                calls[name] += 1
                result = run(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextmanager
    def region(self, name: str, request: str | None = None):
        """Record a span around the block; a request id marks the start of a check."""
        self.calls[name] += 1
        outer_request = self.request
        if request is not None:
            self.request = request
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.request))
            self.request = outer_request

    def _on_substitute(self, poly):
        n = len(poly.terms)
        self.terms_out_sum += n
        self.terms_out_max = max(self.terms_out_max, n)
        if poly.exact:
            self.coeff_bits_max = max(self.coeff_bits_max, _coefficient_bits(poly))

    def _on_certificate(self, cert):
        self.certificates_exact += bool(cert.exact)
        self.residual_terms += len(cert.residual.terms)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target at every binding site in the tubecert package."""
        import tubecert

        modules = {
            info.name: importlib.import_module(f"tubecert.{info.name}")
            for info in pkgutil.iter_modules(tubecert.__path__)
        }
        from tubecert.errors import DomainError

        hooks = {
            "poly.substitute": {"on_result": self._on_substitute},
            "maps.certificate": {"on_result": self._on_certificate},
            "catalog.transitive_params_omega": {"counted_error": DomainError},
            "lie.cayley_group_element": {"counted_error": ZeroDivisionError},
        }
        replacements = {}  # id(original) -> (name, original, wrapper)
        for target in TARGETS:
            obj = modules[target.module]
            for part in target.attr.split("."):
                obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
            wrapper = self._wrap(target.name, obj, target.spanned, **hooks.get(target.name, {}))
            replacements[id(obj)] = (target.name, obj, wrapper)
        handlers = modules["checks"].HANDLERS
        for kind in CHECK_KINDS:
            fn = handlers[kind]
            replacements[id(fn)] = (f"checks.{kind}", fn, self._wrap(f"checks.{kind}", fn, True))
        run_check = modules["checks"].run_check
        replacements[id(run_check)] = (
            "checks.check", run_check, self._wrap("checks.check", run_check, True, request=True)
        )

        sites: Counter = Counter()

        def swap(value):
            hit = replacements.get(id(value))
            if hit is not None and hit[1] is value:
                sites[hit[0]] += 1
                return hit[2]
            return None

        for module in modules.values():
            for key, value in list(vars(module).items()):
                wrapper = swap(value)
                if wrapper is not None:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        wrapper = swap(v)
                        if wrapper is not None:
                            value[k] = wrapper
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for k, v in list(vars(value).items()):
                        wrapper = swap(v)
                        if wrapper is not None:
                            setattr(value, k, wrapper)
        missing = [name for name, _, _ in replacements.values() if not sites[name]]
        if missing:
            raise RuntimeError(f"no binding site found for {missing}")
        self.sites = dict(sites)

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the pass (all but the ``trace.*`` overhead pair)."""
        names = {span[0]: span[1] for span in self.spans}
        parents = {span[0]: span[4] for span in self.spans}
        child_time: defaultdict = defaultdict(float)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            duration = end - start
            self_time[name] += duration - child_time[span_id]
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor is None:
                busy[name] += duration

        out: dict[str, float] = {}
        for target in TARGETS:
            for field in target.fields:
                if field == "count":
                    out[target.name] = self.calls[target.name]
                elif field == "calls":
                    out[f"{target.name}.calls"] = self.calls[target.name]
                elif field == "s":
                    out[f"{target.name}.s"] = busy[target.name]
                else:
                    out[f"{target.name}.self_s"] = self_time[target.name]
        for kind in CHECK_KINDS:
            out[f"checks.{kind}.s"] = busy[f"checks.{kind}"]

        def ratio(num, den):
            return num / den if den else 0.0

        out["poly.terms_out_sum"] = self.terms_out_sum
        out["poly.terms_out_max"] = self.terms_out_max
        out["poly.coeff_bits_max"] = self.coeff_bits_max
        out["maps.certificate.exact_ratio"] = ratio(
            self.certificates_exact, self.calls["maps.certificate"])
        out["maps.residual_terms"] = self.residual_terms
        out["catalog.transitive_params_omega.reject_ratio"] = ratio(
            self.raised["catalog.transitive_params_omega"],
            self.calls["catalog.transitive_params_omega"])
        out["lie.cayley_group_element.fail_ratio"] = ratio(
            self.raised["lie.cayley_group_element"], self.calls["lie.cayley_group_element"])
        out["checks.slowest_s"] = max(
            (end - start for _, name, start, end, _, _ in self.spans if name == "checks.check"),
            default=0.0,
        )
        out["cli.report.s"] = busy["cli.report"]
        return out

    def write_spans(self, path):
        """Write the recorded spans as NDJSON, in order of completion."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def counts_only(metrics: dict) -> dict:
    """The deterministic part of a summary: calls, sizes and ratios, no times."""
    units = {name: unit for name, unit, _ in metric_table()}
    return {k: v for k, v in metrics.items() if units.get(k) != "s"}
