"""Seeded workload generator for the tubecert benchmark.

``generate(name, seed, root)`` returns the config text handed to
``tubecert verify`` and the status every check must end with.  The same
``(name, seed)`` always gives the same text.  Every claim in a generated
config is true, so every check is expected to ``pass``; the negative controls
are run with ``param.expect = inexact``, which also passes.

The generator keeps to the catalog's own constraints, so no input is
degenerate: every ``count``, ``draws``, ``samples`` and ``points`` value is at
least 1, ``sigma`` lies in ``[1, 33.97)``, quadric indices satisfy
``1 <= p <= n <= 7``, and line witnesses only name domains that carry a stated
line.  Check counts are fixed per workload, so a pass does about the same
work for every seed; the seed picks values: alphas, sigmas, quadric signature
indices, line domains and each check's own seed.  Alphas are drawn at two
heights: small (numerator and denominator at most 12) and large (denominator
around 10^5 to 10^6, value still in ``[-3, 3]``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("suite", "pullback", "elimination", "levi")


# Domains with a stated affine complex line (catalog.stated_lines).
LINE_DOMAINS = (
    "D_plus(side=>)", "D_plus(side=<)", "D_minus(side=>)", "D_minus(side=<)",
    "quadric(p=1,n=1,side=<)", "quadric(p=1,n=2,side=>)", "quadric(p=1,n=2,side=<)",
    "quadric(p=2,n=3,side=>)", "quadric(p=2,n=3,side=<)",
    "quadric(p=5,n=7,side=>)", "quadric(p=5,n=7,side=<)",
)


def small_alpha(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def large_alpha(rng: random.Random) -> Fraction:
    """A value in [-3, 3] whose reduced denominator is at least 10^5."""
    while True:
        den = rng.randint(10**5, 10**6)
        alpha = Fraction(rng.randint(-3 * den, 3 * den), den)
        if alpha.denominator >= 10**5:
            return alpha


class _Checks:
    """Collects check blocks with unique ids and seeds drawn from one stream."""

    def __init__(self, prefix: str, rng: random.Random):
        self.prefix = prefix
        self.rng = rng
        self.blocks: list[dict] = []

    def add(self, label: str, kind: str, target: str, path: str | None = None, **params):
        block = {
            "id": f"{self.prefix}-{len(self.blocks):02d}-{label}",
            "kind": kind,
            "target": target,
            "seed": str(self.rng.randint(1, 10**6)),
        }
        if path is not None:
            block["path"] = path
        for key, value in params.items():
            block[f"param.{key}"] = str(value)
        self.blocks.append(block)


def _pullback(c: _Checks):
    rng = c.rng
    for label, alpha in (("small", small_alpha(rng)), ("large", large_alpha(rng))):
        c.add(f"gamma-{label}", "invariance", f"gamma(alpha={alpha})", "exact", count=15)
    for sign in ("plus", "minus"):
        c.add(f"group-{sign}", "invariance", f"M_{sign}", "exact", draws=30)
    for p, n in ((rng.randint(1, 3), 3), (5, 7)):
        c.add(f"quadric-action-{p}-{n}", "invariance", f"quadric_action(p={p},n={n})",
              draws=10)
    for sign in ("plus", "minus"):
        c.add(f"closure-{sign}", "closure", f"P_{sign}", draws=25, inverse_draws=8)


def _elimination(c: _Checks):
    c.add("subalgebra", "lie", "subalgebra_dimensions", stabilizer_reps=30)
    c.add("isotropy", "lie", "isotropy_family", draws=50)
    c.add("line-image", "lie", "line_image", draws=100)
    for sign in ("plus", "minus"):
        c.add(f"normal-form-{sign}", "chern_moser", f"M_{sign}", constant_draws=20)


def _levi(c: _Checks):
    rng = c.rng
    for sign in ("plus", "minus"):
        c.add(f"levi-{sign}", "levi", f"M_{sign}", samples=100)
    for label, alpha in (("small", small_alpha(rng)), ("large", large_alpha(rng))):
        c.add(f"tube-shortcut-{label}", "levi", f"gamma(alpha={alpha})", points=60)
    for i in range(2):
        sigma = rng.randint(10_000, 339_699) / 10_000
        c.add(f"sigma-{i}", "levi", f"sigma(sigma={sigma})", points=60)
    for label, alpha in (("small", small_alpha(rng)), ("large", large_alpha(rng))):
        c.add(f"omega-float-{label}", "transitivity", f"omega(alpha={alpha},side=>)",
              "float", float_count=200)
    c.add("normalizer-float", "invariance", f"normalizer(alpha={small_alpha(rng)})", "float")
    p, n = rng.randint(1, 3), 3
    c.add(f"tube-realisation-float-{p}-{n}", "invariance", f"tube_realisation(p={p},n={n})",
          "float")
    c.add("cayley-float", "invariance", "cayley_map", "float")
    for control in ("bad_constraint", "wrong_phase"):
        c.add(f"control-{control.replace('_', '-')}", "invariance", f"control:{control}",
              "exact", expect="inexact")
    for domain in rng.sample(LINE_DOMAINS, 2):
        c.add("line-witness", "line_witness", domain)


_GENERATORS = {"pullback": _pullback, "elimination": _elimination, "levi": _levi}


def format_config(blocks: list[dict]) -> str:
    return "\n".join(
        "".join(f"{key} = {value}\n" for key, value in block.items()) for block in blocks
    )


def check_ids(config_text: str) -> list[str]:
    """Check ids in config order (the block format's ``id = ...`` lines)."""
    ids = []
    for raw in config_text.splitlines():
        key, sep, value = raw.partition("=")
        if sep and key.strip() == "id":
            ids.append(value.strip())
    return ids


def generate(name: str, seed: int, root: Path) -> tuple[str, dict[str, str]]:
    """Config text and expected status per check id for one workload and seed.

    ``suite`` is the shipped default suite as users get it; its checks carry
    fixed seeds, so it is the same for every benchmark seed.
    """
    if name == "suite":
        text = (root / "src" / "tubecert" / "data" / "default_suite.cfg").read_text()
    elif name in _GENERATORS:
        checks = _Checks(name, random.Random(f"{name}:{seed}"))
        _GENERATORS[name](checks)
        text = format_config(checks.blocks)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return text, {check_id: "pass" for check_id in check_ids(text)}
