"""Tests for the prox self-test battery."""

import dataclasses
import functools

import numpy as np
import pytest

from proxdyn.objectives import abs_plus_quad, l1_norm
from proxdyn.selftest import PropertyResult, default_registry, run_prox_selftest


def test_battery_passes_on_default_registry():
    results = run_prox_selftest()
    assert len(results) == 11
    assert all(r.passed for r in results)
    assert all(r.samples == 100 for r in results)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


def test_battery_is_deterministic():
    a = run_prox_selftest()
    b = run_prox_selftest()
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert ra.max_error == rb.max_error


def test_battery_flags_corrupted_prox():
    good = abs_plus_quad()
    # doubling violates nonexpansiveness of any proximal map
    bad = dataclasses.replace(good, name="corrupted", prox=lambda lam, x: 2.0 * x)
    results = run_prox_selftest(objectives=[bad])
    by_name = {r.name: r for r in results}
    flagged = by_name["prox nonexpansive"]
    assert not flagged.passed
    assert flagged.witness
    assert "corrupted" in flagged.witness
    # the swapped prox has no scalar form, so the bit-for-bit property skips it
    assert SCALAR_PROPERTY not in by_name


SCALAR_PROPERTY = "scalar prox equals array prox bit for bit"


def test_scalar_prox_property_runs_on_default_registry():
    by_name = {r.name: r for r in run_prox_selftest()}
    result = by_name[SCALAR_PROPERTY]
    assert result.passed and result.max_error == 0.0 and result.samples == 100


def test_scalar_prox_property_compares_bits():
    # adding 0.0 turns the -0.0 that soft thresholding gives on [-lam, 0)
    # into +0.0: equal as numbers, wrong as bits
    good = l1_norm()

    def prox(lam, x):
        return good.prox(lam, x)

    prox.coordinate_source = f"{good.prox.coordinate_source} + 0.0"
    prox.coordinate_params = good.prox.coordinate_params
    bad = dataclasses.replace(good, name="unsigned_zero", prox=prox)
    result = {r.name: r for r in run_prox_selftest(objectives=[bad])}[SCALAR_PROPERTY]
    assert not result.passed
    assert result.witness.startswith("unsigned_zero, lam=")


def test_scalar_prox_property_checks_the_source_the_integrator_splices():
    # a source that doubles the soft threshold, on a prox that otherwise
    # carries the built-in's scalar form (functools.wraps copies it):
    # integrate splices the source in, and from x0 = 3 ends near 393 against
    # 0.02 with the array prox, so the property must check the source itself
    good = l1_norm()

    @functools.wraps(good.prox)
    def prox(lam, x):
        return good.prox(lam, x)

    prox.coordinate_source = f"2.0 * ({good.prox.coordinate_source})"
    bad = dataclasses.replace(good, name="doubled_source", prox=prox)
    result = {r.name: r for r in run_prox_selftest(objectives=[bad])}[SCALAR_PROPERTY]
    assert not result.passed
    assert result.witness.startswith("doubled_source, lam=")


def test_empty_registry_gives_no_results():
    assert run_prox_selftest(objectives=[]) == []


def test_result_format_lines():
    results = run_prox_selftest(samples=20)
    line = results[0].format()
    assert line.startswith("[pass]") or line.startswith("[FAIL]")
    assert results[0].name in line


def test_default_registry_contents():
    names = [obj.name for obj in default_registry()]
    assert "abs_plus_quad" in names
    assert "l1_norm" in names
    assert len(names) == 5
