import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handsoff.errors import AssumptionViolationError, DomainError, ParameterError
from handsoff.penalty import (
    KINDS,
    PARAMETERS,
    Penalty,
    equivalence_constant,
    phi,
    phi_subgradient,
    psi,
    validate_assumption,
)

LSP_SCALE = math.log(1.0 + 1.0e6)

# the assumption-check parameter set used throughout
CATALOG = [
    Penalty("lp", 0.8, p=0.5),
    Penalty("mcp", 0.25, alpha=2.0),
    Penalty("scad", 0.25, alpha=3.0),
    Penalty("lsp", 0.5 / LSP_SCALE, alpha=1e-6),
    Penalty("capped_l1", 0.8, alpha=0.5),
    Penalty("l1l2", 0.6),
]

# the benchmark-solve parameter set
BENCHMARK = [
    Penalty("lp", 0.8, p=0.5),
    Penalty("mcp", 1.0, alpha=0.5),
    Penalty("scad", 0.25, alpha=3.0),
    Penalty("lsp", 0.1 / LSP_SCALE, alpha=1e-6),
    Penalty("capped_l1", 0.8, alpha=0.5),
    Penalty("l1l2", 0.1),
]

# interior points where psi switches branch, per kind
def _branch_points(pen):
    if pen.kind == "mcp":
        return [pen.alpha * pen.lam]
    if pen.kind == "scad":
        return [pen.lam, pen.alpha * pen.lam]
    if pen.kind == "capped_l1":
        return [pen.alpha]
    return []


def valid_penalties():
    return st.one_of(
        st.builds(lambda lam, p: Penalty("lp", lam, p=p),
                  st.floats(0.05, 3.0), st.floats(0.05, 0.95)),
        st.builds(lambda lam, a: Penalty("mcp", lam, alpha=a),
                  st.floats(0.05, 3.0), st.floats(0.05, 4.0)),
        st.builds(lambda lam, a: Penalty("scad", lam, alpha=a),
                  st.floats(0.01, 0.99), st.floats(1.05, 6.0)),
        st.builds(lambda lam, a: Penalty("lsp", lam, alpha=a),
                  st.floats(0.05, 3.0), st.floats(1e-4, 3.0)),
        st.builds(lambda lam, a: Penalty("capped_l1", lam, alpha=a),
                  st.floats(0.05, 3.0), st.floats(0.05, 0.95)),
        st.builds(lambda lam: Penalty("l1l2", lam), st.floats(0.01, 0.99)),
    )


# ---------------------------------------------------------------------------
# point values

def test_psi_values():
    assert psi(Penalty("mcp", 0.25, alpha=2.0), 1.0) == pytest.approx(0.0625, abs=1e-15)
    assert psi(Penalty("scad", 0.25, alpha=3.0), 0.2) == pytest.approx(0.05, abs=1e-15)
    lsp = Penalty("lsp", 0.5 / LSP_SCALE, alpha=1e-6)
    assert psi(lsp, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert psi(Penalty("lp", 0.8, p=0.5), 0.25) == pytest.approx(0.4, abs=1e-15)


def test_phi_values():
    for pen in CATALOG:
        assert phi(pen, 0.0) == 0.0
    assert phi(Penalty("l1l2", 0.6), 1.0) == pytest.approx(0.6, abs=1e-15)
    assert phi(Penalty("l1l2", 0.6), -1.0) == pytest.approx(0.6, abs=1e-15)
    assert phi(Penalty("lp", 0.8, p=0.5), 0.25) == pytest.approx(-0.15, abs=1e-15)


def test_phi_can_dip_negative_inside():
    # negative gap values are allowed; only the chord bound matters
    assert phi(Penalty("lp", 0.8, p=0.5), 0.25) < 0.0


def test_subgradient_values():
    assert phi_subgradient(Penalty("l1l2", 0.6), 0.5) == pytest.approx(0.6, abs=1e-15)
    assert phi_subgradient(Penalty("mcp", 0.25, alpha=2.0), 0.25) == pytest.approx(0.875, abs=1e-15)
    # left derivative at the kink
    assert phi_subgradient(Penalty("capped_l1", 0.8, alpha=0.5), 0.5) == pytest.approx(0.2, abs=1e-15)
    # the divergent slope at the origin is clamped: below 1e-8 lp takes the
    # slope at 1e-8, above it its own
    lp = Penalty("lp", 0.8, p=0.5)
    want = 1.0 - 0.8 * 0.5 * (1e-8) ** (-0.5)
    assert phi_subgradient(lp, 0.0) == phi_subgradient(lp, 1e-10) == phi_subgradient(lp, 1e-8)
    assert phi_subgradient(lp, 0.0) == pytest.approx(want, rel=1e-12)
    assert phi_subgradient(lp, 1e-6) == pytest.approx(1.0 - 0.4 * 1e3, rel=1e-12)


def test_equivalence_constants():
    expected = {
        "lp": 0.8,
        "mcp": 0.0625,
        "scad": 0.125,
        "lsp": 0.5,
        "capped_l1": 0.4,
        "l1l2": 0.4,
    }
    for pen in CATALOG:
        assert equivalence_constant(pen) == pytest.approx(expected[pen.kind], abs=1e-12)


def test_equivalence_constant_rejects_degenerate_gap():
    with pytest.raises(AssumptionViolationError):
        equivalence_constant(Penalty("l1l2", 1.0))


# ---------------------------------------------------------------------------
# parameter ranges

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="lp", lam=0.0, p=0.5),
        dict(kind="lp", lam=0.8, p=1.0),
        dict(kind="lp", lam=0.8, p=0.0),
        dict(kind="lp", lam=0.8),
        dict(kind="mcp", lam=-1.0, alpha=2.0),
        dict(kind="mcp", lam=0.5, alpha=0.0),
        dict(kind="scad", lam=1.5, alpha=3.0),
        dict(kind="scad", lam=0.25, alpha=1.0),
        dict(kind="lsp", lam=0.5, alpha=0.0),
        dict(kind="capped_l1", lam=0.8, alpha=1.5),
        dict(kind="l1l2", lam=0.0),
        dict(kind="l1l2", lam=1.2),
        dict(kind="cauchy", lam=0.5),
        # the range tests refuse a non-finite lambda
        dict(kind="l1l2", lam=math.inf),
        dict(kind="mcp", lam=math.nan, alpha=2.0),
    ],
)
def test_parameter_ranges_rejected(kwargs):
    with pytest.raises(ParameterError):
        Penalty(**kwargs)


def test_parameter_table():
    assert {kind: tuple(ranges) for kind, ranges in PARAMETERS.items()} == {
        "lp": ("lam", "p"), "mcp": ("lam", "alpha"), "scad": ("lam", "alpha"),
        "lsp": ("lam", "alpha"), "capped_l1": ("lam", "alpha"), "l1l2": ("lam",)}
    assert KINDS == tuple(PARAMETERS)


NOT_TAKEN = [(pen, name) for pen in CATALOG for name in ("alpha", "p")
             if name not in PARAMETERS[pen.kind]]


@pytest.mark.parametrize("pen,name", NOT_TAKEN, ids=[f"{p.kind}-{n}" for p, n in NOT_TAKEN])
def test_each_kind_refuses_the_parameters_it_does_not_take(pen, name):
    # an unused parameter would otherwise show in every label of the run
    params = {"lam": pen.lam, "alpha": pen.alpha, "p": pen.p, name: 0.5}
    with pytest.raises(ParameterError, match=f"^{pen.kind}: takes no {name}, got 0.5$"):
        Penalty(pen.kind, **params)


def test_boundary_parameters_constructible_for_reporting():
    # these break the structural conditions, not the formulas, and must be
    # constructible so the validator can say which condition fails
    Penalty("l1l2", 1.0)
    Penalty("capped_l1", 0.8, alpha=1.0)


def test_domain_checks():
    pen = Penalty("l1l2", 0.6)
    with pytest.raises(DomainError):
        psi(pen, 1.5)
    with pytest.raises(DomainError):
        phi(pen, -1.0001)
    with pytest.raises(DomainError):
        phi_subgradient(pen, -0.2)
    with pytest.raises(DomainError):
        phi_subgradient(pen, 1.2)
    # the range is tested first; NaN fails only the finiteness test
    with pytest.raises(DomainError, match=r"lie in \[0.0, 1.0\]"):
        phi(pen, np.array([0.5, math.inf]))
    with pytest.raises(DomainError, match="finite"):
        phi_subgradient(pen, np.array([math.nan, 1.5]))


# ---------------------------------------------------------------------------
# assumption validation

@pytest.mark.parametrize("pen", CATALOG + BENCHMARK, ids=lambda p: f"{p.kind}-{p.lam:.4g}")
def test_catalog_passes_assumption(pen):
    report = validate_assumption(pen)
    assert report.passed
    assert report.violated == ()
    assert report.worst_margin > 1e-12
    assert report.note == "grid-verified"


def test_degenerate_l1l2_fails_a3():
    report = validate_assumption(Penalty("l1l2", 1.0))
    assert not report.passed
    assert report.violated == ("A3",)
    # phi(1) == 1 exactly is the failing clause
    assert report.worst_margin <= 1e-12


def test_degenerate_capped_fails_a3():
    report = validate_assumption(Penalty("capped_l1", 0.8, alpha=1.0))
    assert not report.passed
    assert "A3" in report.violated


def test_a_chord_bound_within_the_margin_fails_a3():
    # phi = lam*u^2: the chord slack lam*u*(1 - u) is least at u = 0.001, about 1e-13
    report = validate_assumption(Penalty("l1l2", 1e-10))
    assert report.violated == ("A3",)
    assert 0.0 < report.worst_margin <= 1e-12 and report.witness_u == 0.001


# the crafted A3 violations of acceptance criterion 5
CRAFTED = [Penalty("l1l2", 1.0), Penalty("capped_l1", 0.8, alpha=1.0)]


def _pen_id(p):
    return f"{p.kind}-{p.lam:.4g}-{p.alpha}"


# (passed, worst_margin, witness_u) of each report, bit for bit
REPORTS = [
    (True, 0.0003998999499687794, 0.999),
    (True, 6.249999999996536e-05, 0.999),
    (True, 0.000125, 0.001),
    (True, 0.00046379072434687973, 0.999),
    (True, 0.00039999999999995595, 0.999),
    (True, 0.0005994, 0.001),
    (True, 0.0003998999499687794, 0.999),
    (True, 0.00024999999999997247, 0.999),
    (True, 0.000125, 0.001),
    (True, 9.275814486942036e-05, 0.999),
    (True, 0.00039999999999995595, 0.999),
    (True, 9.989999999991672e-05, 0.999),
    (False, 0.0, 1.0),
    (False, -5.551115123125783e-17, 0.629),
]


@pytest.mark.parametrize("pen,expected", list(zip(CATALOG + BENCHMARK + CRAFTED, REPORTS)),
                         ids=[_pen_id(p) for p in CATALOG + BENCHMARK + CRAFTED])
def test_report_values_are_pinned(pen, expected):
    report = validate_assumption(pen)
    assert (report.passed, report.worst_margin, report.witness_u) == expected
    assert report.grid_size == 1000


@pytest.mark.parametrize("pen", CATALOG + CRAFTED, ids=_pen_id)
def test_repeated_validation_returns_equal_fresh_reports(pen):
    # repeated calls share one report; a check run afresh gives an equal one
    first = validate_assumption(pen)
    assert validate_assumption(pen) is first
    validate_assumption.cache_clear()
    fresh = validate_assumption(pen)
    assert fresh == first and fresh is not first


@pytest.mark.parametrize("pen", CATALOG + CRAFTED, ids=_pen_id)
def test_changing_a_report_leaves_the_next_one_alone(pen):
    report = validate_assumption(pen)
    expected = (report.passed, report.violated, report.worst_margin)
    for name, value in (("passed", not report.passed), ("violated", ("A9",)),
                        ("worst_margin", -1.0)):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, value)
    again = validate_assumption(pen)
    assert again is report
    assert (again.passed, again.violated, again.worst_margin) == expected


# ---------------------------------------------------------------------------
# grid properties

GRID = np.linspace(0.0, 1.0, 1001)


@pytest.mark.parametrize("pen", CATALOG, ids=lambda p: p.kind)
def test_psi_nonnegative_and_zero_at_origin(pen):
    u = np.linspace(-1.0, 1.0, 10_001)
    vals = psi(pen, u)
    assert psi(pen, 0.0) == 0.0
    assert np.min(vals) >= 0.0
    assert np.array_equal(vals, psi(pen, -u))  # even in u


@pytest.mark.parametrize("pen", CATALOG, ids=lambda p: p.kind)
def test_phi_is_abs_minus_psi(pen):
    u = np.linspace(-1.0, 1.0, 2001)
    assert np.array_equal(phi(pen, u), np.abs(u) - psi(pen, u))


@pytest.mark.parametrize("pen", CATALOG + BENCHMARK, ids=lambda p: f"{p.kind}-{p.lam:.4g}")
def test_phi_midpoint_convexity(pen):
    vals = phi(pen, GRID)
    lhs = phi(pen, 0.5 * (GRID[None, :] + GRID[:, None]))
    rhs = 0.5 * (vals[None, :] + vals[:, None])
    assert np.max(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("pen", CATALOG + BENCHMARK, ids=lambda p: f"{p.kind}-{p.lam:.4g}")
def test_subgradient_validity_on_grid(pen):
    vals = phi(pen, GRID)
    subs = phi_subgradient(pen, GRID)
    # phi(u') >= phi(u) + s(u) (u' - u) for every grid pair
    gap = vals[None, :] - vals[:, None] - subs[:, None] * (GRID[None, :] - GRID[:, None])
    assert gap.min() >= -1e-9


@pytest.mark.parametrize("pen", CATALOG + BENCHMARK, ids=lambda p: f"{p.kind}-{p.lam:.4g}")
def test_subgradient_matches_central_difference(pen):
    h = 1e-6
    pts = GRID[(GRID > 1e-3) & (GRID < 1.0 - 1e-3)]
    for b in _branch_points(pen):
        pts = pts[np.abs(pts - b) > 1e-3]
    fd = (phi(pen, pts + h) - phi(pen, pts - h)) / (2.0 * h)
    sg = phi_subgradient(pen, pts)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(sg - fd) / denom) < 1e-5


# ---------------------------------------------------------------------------
# randomized properties

@settings(max_examples=60, deadline=None)
@given(valid_penalties(), st.integers(0, 1000), st.integers(0, 1000))
def test_subgradient_validity_random(pen, i, j):
    u, up = GRID[i], GRID[j]
    s = phi_subgradient(pen, u)
    assert phi(pen, up) >= phi(pen, u) + s * (up - u) - 1e-9


@settings(max_examples=60, deadline=None)
@given(valid_penalties(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_midpoint_convexity_random(pen, a, b):
    mid = phi(pen, 0.5 * (a + b))
    assert mid <= 0.5 * (phi(pen, a) + phi(pen, b)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(valid_penalties())
def test_phi_is_zero_at_the_origin_random(pen):
    # the fact that lets the structural check skip u = 0
    assert phi(pen, 0.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(valid_penalties(), st.floats(-1.0, 1.0))
def test_psi_phi_consistency_random(pen, u):
    assert psi(pen, u) >= 0.0
    assert phi(pen, u) == abs(u) - psi(pen, u)
    assert phi(pen, u) == phi(pen, -u)
