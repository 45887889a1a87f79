"""The hostile-input sweep: valid config keys with hostile values.

Each example draws a (check kind, target family) row of ``checks.CHECKS``,
fills the target's arguments, the block's ``seed`` and ``path`` and the row's
parameters with values drawn from pools of valid and hostile texts, and runs
``tubecert verify`` on the block in-process.  Whatever the values, the run
must end with exit 0, 1 or 2, print no traceback and report no check with
status ``error``.  Every example runs behind two guards, so that a regression
fails the example instead of hanging the suite: a spy on ``scalars.Fraction``
stops a text with a decimal exponent beyond ``scalars.MAX_EXPONENT`` before it
is expanded, and ``run_check`` refuses a count above ``checks.MAX_COUNT``.
"""

import contextlib
import io
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert import catalog, checks, cli, scalars
from tubecert.cli import main

# Each pool is (valid, refused) texts.  The valid ones include the extremes a
# check still runs at: exponents of 4000, p and n of 64, unicode digits.  The
# refused ones are exponents at, just beyond and far beyond the limit (Fraction
# would build integers of up to 10^9 digits), nan, inf, empty and malformed texts.
RATIONALS = (
    ["0", "1", "-2", "1/12", "7/12", "-1/4", "33.9", "1_0", "+3", " 5 ", "٣", "３", "1e4000",
     "-1e4000", "1e-4000", "1e400", "1e-400", "1.5e3"],
    ["1e10000", "-1e10000", "1e-10000", "1e10001", "-1e10001", "1e-10001", "1E+010001",
     "1e999999999", "1e-999999999", "1e٩٩٩٩٩٩٩٩٩", "1e1_000_000", "9" * 5000, "nan", "inf",
     "-inf", "", "1/0", "0/0", "0x10", "−1", "1e", "e5", "--1", "1/-2"],
)
DIMENSIONS = (
    ["1", "2", "3", "7", "64", "+2", "٣", "３", " 2 "],
    ["65", "0", "-1", "²", "", "nan", "inf", "1e3", "1e999999999", "2.0", "9" * 5000, "10**9"],
)
ARGUMENTS = {
    "alpha": RATIONALS,
    "sigma": RATIONALS,
    "p": DIMENSIONS,
    "n": DIMENSIONS,
    "side": ([">", "<", " > "], ["", "=", "＞", ">>", "> <"]),
    "sign": (["+", "-"], ["", "±", "−", "+-"]),
}
COUNTS = (
    ["1", "2", "3", "+2", "٣", "３", " 3 "],
    ["0", "-5", "-0", str(checks.MAX_COUNT + 1), str(checks.MAX_COUNT + 2), "1000000000",
     "9" * 5000, "1e3", "1e999999999", "2.0", "nan", "inf", "-inf", "", "1/0", "²", "0x10"],
)
CHOICES = {
    "generators": (["phi", "psi,mu", "nu, phi", "mu,nu,psi,phi"],
                   ["", ",", "phi,phi", "xi", "PHI", "phi;psi"]),
    "expect": (["inexact", "exact"], ["", "INEXACT", "exact!"]),
    "regression": (["none", "alpha1"], ["", "alpha2", "None"]),
}
SEEDS = (["1", "7", "-1", "0", "+3", "٣", "99999999999999999999"], ["", "nan", "1e3", "9" * 5000])
PATHS = (["exact", "float", "both"], ["", "EXACT", "float,exact"])

ROWS = sorted(checks.CHECKS)
# 300 examples take 2-3 s of the Tier-1 run on a 2-core x86 machine; the slowest example (the
# quadric transitivity at n = 64) takes about 0.4 s.
EXAMPLES = 300
DEADLINE_MS = 10_000

_EXPONENT = re.compile(r"e\s*[+-]?\s*([\d_]+)\s*$")


def _huge_exponent(text: str) -> bool:
    m = _EXPONENT.search(text.strip().lower())
    return m is not None and int(m.group(1).replace("_", "") or "0") > scalars.MAX_EXPONENT


class _SpyMeta(type(Fraction)):
    def __instancecheck__(cls, obj):
        return isinstance(obj, Fraction)


class _FractionSpy(Fraction, metaclass=_SpyMeta):
    """``Fraction`` as ``scalars`` sees it, refusing a text with a huge exponent."""

    expanded: list[str] = []

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and _huge_exponent(numerator):
            cls.expanded.append(numerator)
            raise AssertionError(f"Fraction was asked to expand {numerator!r}")
        return Fraction(numerator, denominator)


@st.composite
def hostile_blocks(draw) -> str:
    """One config block.  Every key takes a valid value or is left out, except in
    half the blocks one key, which takes a refused value: so each refusal is met
    on its own, and the other blocks run the check at the extremes."""
    kind, family = draw(st.sampled_from(ROWS))
    args = catalog.FAMILIES[family].args if family in catalog.FAMILIES else ()
    slots = [*((a, ARGUMENTS[a]) for a in args), ("seed", SEEDS), ("path", PATHS)]
    for key, (parse, _) in checks.CHECKS[kind, family].params.items():
        slots.append((f"param.{key}", COUNTS if parse is checks._count else CHOICES[key]))
    refused = draw(st.none() | st.sampled_from(range(len(slots))))
    values = {key: draw(st.sampled_from(bad) if i == refused else st.none() | st.sampled_from(ok))
              for i, (key, (ok, bad)) in enumerate(slots)}
    pieces = ",".join(f"{a}={values[a]}" for a in args if values[a] is not None)
    target = f"{family}({pieces})" if args else family
    lines = ["id = hostile", f"kind = {kind}", f"target = {target}"]
    lines += [f"{key} = {v}" for key, v in values.items() if key not in args and v is not None]
    return "\n".join(lines) + "\n"


def _bounded_run_check(spec):
    """``run_check``, refusing a spec whose count would run for hours."""
    counts = [v for v in spec.parameters.values() if type(v) is int]
    if any(v > checks.MAX_COUNT for v in counts):
        raise AssertionError(f"a count above {checks.MAX_COUNT} reached run_check: {spec}")
    return checks.run_check(spec)


def _verify(text: str) -> tuple[int, str, str]:
    """``tubecert verify`` on the text behind both guards: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    _FractionSpy.expanded.clear()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "Fraction", _FractionSpy)
        patch.setattr(cli, "run_check", _bounded_run_check)
        cfg = Path(tmp) / "hostile.cfg"
        cfg.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(cfg)])
    assert _FractionSpy.expanded == []
    return code, out.getvalue(), err.getvalue()


def test_the_spy_stops_a_huge_exponent_and_passes_the_rest():
    assert _huge_exponent("1e999999999") and _huge_exponent("-1E+010001")
    assert _huge_exponent("1e٩٩٩٩٩٩٩٩٩") and _huge_exponent("1e1_000_000")
    assert not _huge_exponent("1e10000") and not _huge_exponent("7/12")
    assert isinstance(Fraction(1, 2), _FractionSpy) and _FractionSpy("3/4") == Fraction(3, 4)
    code, out, err = _verify("id = x\nkind = levi\ntarget = gamma(alpha=1e999999999)\n")
    assert code == 2 and "decimal exponent beyond ±10000" in err


@given(hostile_blocks())
@settings(max_examples=EXAMPLES, deadline=DEADLINE_MS)
def test_hostile_values_exit_0_1_or_2_without_a_traceback(text):
    code, out, err = _verify(text)
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in out + err
    assert '"status": "error"' not in out, out
    if code == 2:
        assert out == "" and err.startswith("config error: check 'hostile'"), err
