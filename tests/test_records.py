"""The package's records: construction checks, immutability, copies and defaults.

A record that checks or keeps something on construction is a subclass of
``scalars.Record``; any other is a ``typing.NamedTuple``.  Either way a field
cannot be assigned, a copy is made with ``_replace``, and a mapping default is
one read-only empty mapping rather than a dict that every record would share.
"""

from fractions import Fraction

import pytest

from tubecert import catalog, checks, geometry, lie, maps
from tubecert.cli import main
from tubecert.errors import DomainError
from tubecert.poly import HermitianPolynomial, RealPolynomial, VariableSpace
from tubecert.scalars import GaussianRational, Record

IDENTITY_PARAMS_REPR = (
    "PParams(sign='+', q=Fraction(1, 1), phi_phase=GaussianRational(Fraction(1, 1), Fraction(0, 1)),"
    " psi_phase=GaussianRational(Fraction(1, 1), Fraction(0, 1)), u=Fraction(0, 1),"
    " rho=GaussianRational(Fraction(0, 1), Fraction(0, 1)),"
    " sigma=GaussianRational(Fraction(0, 1), Fraction(0, 1)),"
    " tau=GaussianRational(Fraction(0, 1), Fraction(0, 1)),"
    " b=GaussianRational(Fraction(0, 1), Fraction(0, 1)),"
    " d=GaussianRational(Fraction(0, 1), Fraction(0, 1)))"
)


def test_a_variable_space_needs_a_variable():
    with pytest.raises(DomainError, match="at least one variable"):
        VariableSpace(0)
    assert VariableSpace(2) == VariableSpace(2) != VariableSpace(3)
    assert hash(VariableSpace(2)) == hash(VariableSpace(2))
    assert repr(VariableSpace(2)) == "VariableSpace(n=2)"


def test_a_sided_domain_needs_a_side():
    surface = catalog.model_surface("+")
    with pytest.raises(DomainError, match="side must be"):
        geometry.SidedDomain(surface, 0)
    low = geometry.SidedDomain(surface, -1)
    assert low == geometry.SidedDomain(surface, -1) != geometry.SidedDomain(surface, 1)


def test_a_lie_subspace_needs_a_field_and_an_independent_basis():
    e12 = lie.E(0, 1)
    with pytest.raises(DomainError, match="field must be 'C' or 'R'"):
        lie.LieSubspace((e12,), "Q")
    with pytest.raises(DomainError, match="not linearly independent"):
        lie.LieSubspace((e12, lie.mscale(e12, 2)), "C")
    # i E_12 is independent of E_12 over R only
    ie12 = lie.mscale(e12, GaussianRational(0, 1))
    with pytest.raises(DomainError, match="not linearly independent"):
        lie.LieSubspace((e12, ie12), "C")
    assert lie.LieSubspace((e12, ie12), "R").dimension == 2


def test_an_empty_quadric_action_is_refused(capsys):
    with pytest.raises(DomainError, match="need 1 <= p <= n"):
        catalog.QuadricFamily(3, 2)
    assert main(["describe", "quadric_action(p=3,n=2)"]) == 2
    assert "need 1 <= p <= n" in capsys.readouterr().err


def test_the_params_compare_without_their_map_and_a_copy_drops_it():
    built = catalog.identity_p_params("+")
    element = catalog.make_p_element(built)
    assert built._map is element
    fresh = catalog.identity_p_params("+")
    assert fresh._map is None and fresh == built and hash(fresh) == hash(built)
    assert repr(fresh) == repr(built) and "_map" not in repr(built)
    assert repr(built).startswith("PParams(sign='+', q=Fraction(1, 1), phi_phase=")
    copy = built._replace()
    assert copy == built and copy._map is None
    moved = built._replace(u=Fraction(1))
    assert moved != built and moved._map is None and moved.u == 1 and moved.q == built.q
    with pytest.raises(TypeError):
        built._replace(_map=element)
    assert built != tuple(getattr(built, k) for k in built._fields)


# Each Record subclass: a builder of one value (a new object per call), and what
# fills the values it keeps on first use.
VALUES = {
    GaussianRational: (lambda: GaussianRational(Fraction(3, 5), Fraction(-4, 5)), None),
    VariableSpace: (lambda: VariableSpace(2), None),
    HermitianPolynomial: (lambda: HermitianPolynomial(VariableSpace(1), {(1, 1): 2}),
                          lambda p: p.evaluate_values([1j, -1j])),
    RealPolynomial: (lambda: RealPolynomial(HermitianPolynomial(VariableSpace(2), {(2, 1, 0, 0): 3})),
                     lambda f: f.hessian_at([1, 2])),
    maps.HoloPolyMap: (lambda: maps.HoloPolyMap.identity(VariableSpace(2)), None),
    geometry.Hypersurface: (lambda: catalog.model_surface("+"),
                            lambda s: s.complex_hessian_at([0, 0, 0, 0])),
    geometry.SidedDomain: (lambda: catalog.model_domain("-", "<"), None),
    lie.LieSubspace: (lambda: lie.LieSubspace((lie.E(0, 1), lie.E(1, 0)), "R"), None),
    catalog.PParams: (lambda: catalog.identity_p_params("+"), catalog.make_p_element),
    catalog.RationalizedEquivalence: (lambda: catalog.make_tube_realisation_rational(1, 2),
                                      lambda e: e.printed_image([1, 1, 1])),
    catalog.QuadricFamily: (lambda: catalog.QuadricFamily(2, 3), None),
}


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    make, warm = VALUES[cls]
    x, y = make(), make()
    assert type(x) is cls and x is not y
    assert x == x and x == y and hash(x) == hash(y)
    assert x != tuple(getattr(x, k) for k in x._fields)
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        setattr(x, x._fields[0], getattr(x, x._fields[0]))
    kept = set(cls.__slots__) - set(cls._fields)
    if warm:
        warm(x)
        assert any(getattr(x, slot, None) != getattr(y, slot, None) for slot in kept)
    copy = x._replace()
    assert copy is not x and copy == x and hash(copy) == hash(x)
    for slot in kept:  # a copy's kept values start as a new value's
        assert getattr(copy, slot, None) == getattr(y, slot, None), slot
    with pytest.raises(TypeError):
        x._replace(bogus=1)


def test_record_reprs_are_pinned():
    assert repr(VariableSpace(2)) == "VariableSpace(n=2)"
    assert repr(catalog.QuadricFamily(2, 3)) == "QuadricFamily(p=2, n=3)"
    assert repr(catalog.identity_p_params("+")) == IDENTITY_PARAMS_REPR
    assert repr(GaussianRational(1, 2)) == "GaussianRational(Fraction(1, 1), Fraction(2, 1))"


def _records():
    """One instance of each record and a field to try assigning."""
    space = VariableSpace(1)
    surface = catalog.model_surface("+")
    rho = surface.rho
    spec = checks.CheckSpec("a", "levi", "M_plus")
    return [
        (space, "n"),
        (geometry.SidedDomain(surface, 1), "side"),
        (geometry.levi_form(surface, [0.0] * 4), "signature"),
        (geometry.LineWitness(True, None, "constant", HermitianPolynomial.zero(space)), "grade"),
        (maps.invariance_certificate(rho, maps.HoloPolyMap.identity(rho.space)), "exact"),
        (lie.sl3(), "basis"),
        (lie.is_subalgebra(lie.sl3()), "closed"),
        (catalog.identity_p_params("+"), "q"),
        (catalog.make_tube_realisation_rational(1, 1), "radicands"),
        (catalog.QuadricFamily(1, 2), "p"),
        (catalog.resolve("M_plus"), "obj"),
        (catalog.FAMILIES["gamma"], "kind"),
        (spec, "seed"),
        (checks.run_check(spec), "status"),
        (checks.CHECKS["levi", "M_plus"], "paths"),
    ]


@pytest.mark.parametrize("record, name", _records(),
                         ids=lambda x: None if isinstance(x, str) else type(x).__name__)
def test_assigning_a_field_raises(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


def test_the_mapping_defaults_are_one_read_only_empty_mapping():
    defaults = [checks.CheckSpec("a", "levi", "M_plus").parameters,
                checks.CHECKS["rank", "P_plus"].params, catalog.FAMILIES["gamma"].binds]
    for mapping in defaults:
        assert mapping == {} and mapping is catalog.NO_ENTRIES
        with pytest.raises(TypeError):
            mapping["x"] = 1
    assert catalog.NO_ENTRIES == {}
    # a prepared spec holds a dict of its own
    prepared = checks.prepare(checks.CheckSpec("a", "levi", "M_plus"))
    assert type(prepared.parameters) is dict and prepared.parameters == {"samples": 50}
