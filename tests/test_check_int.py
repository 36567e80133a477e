"""One integer rule for every count, byte size and seed: ``errors.check_int``.

Each site below once wrote its own check, most of them of the sign alone,
so a bool, a float or an infinite size got through. Every one now refuses
the same values with the same message, and stores a numpy integer as a
plain ``int``.
"""

import math
import sys
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from faasplan import GB, MB, UNLIMITED, DomainError, LatencyProfile, SampleSet, TrafficPattern
from faasplan.catalog import ModelArtifact, SelectionConstraints
from faasplan.cost import (
    PricingModel,
    VmBaseline,
    billed_duration,
    breakeven,
    build_cost_report,
    cost_from_samples,
    serverless_cost,
    serverless_cost_total,
)
from faasplan.errors import check_int
from faasplan.harness import BenchRun, BenchTarget, StubServer
from faasplan.metrics import warmup_filter
from faasplan.packaging import DeploymentPackage, DeploymentPlan, RuntimeLibrary
from faasplan.providers import CpuScaling, ProviderLimits, effective_cpu
from faasplan.results import SimulationResult
from faasplan.simulator import SimulationConfig, _draws_in_python

PRICING = PricingModel(per_million_requests=Decimal("0.2"), per_gb_second=Decimal("0.0000166667"))
RUNTIME = RuntimeLibrary("onnxruntime", 1, frozenset({"onnx"}))
MODEL = ModelArtifact("m", MB, "onnx")
PACKAGE = DeploymentPackage(0, RUNTIME, MODEL)
TARGET = BenchTarget(url="http://127.0.0.1:9/")


def _limits(**value):
    return ProviderLimits("x", **{"max_package_bytes": UNLIMITED, "max_memory_bytes": GB,
                                  "max_request_bytes": MB, **value})


def _seed_without_numpy(seed):
    """``_draws_in_python`` where numpy cannot be imported, so that it checks ``seed``."""
    saved, sys.modules["numpy"] = sys.modules["numpy"], None
    try:
        return _draws_in_python(TrafficPattern.steady(1, 1), seed, True)
    finally:
        sys.modules["numpy"] = saved


def _stub(fail_every):
    stub = StubServer(fail_every=fail_every)
    stub.stop()
    return SimpleNamespace(fail_every=stub._fail_every)


# site -> (call, field, positive, unlimited[, None]): ``call(value)`` passes value as
# ``field`` and returns what holds it, if anything does; a trailing None marks a field
# whose default is None, which takes None.
SITES = {
    "LatencyProfile.reference_memory_bytes": (
        lambda v: LatencyProfile.constant(10.0, v), "reference_memory_bytes", True, False),
    "LatencyProfile.from_quantile_anchors": (
        lambda v: LatencyProfile.from_quantile_anchors({0.5: 10.0}, v, GB), "n_samples", True, False),
    "SimulationConfig.seed": (lambda v: SimulationConfig(seed=v, memory_bytes=GB), "seed", False, False),
    "SimulationConfig.memory_bytes": (
        lambda v: SimulationConfig(seed=0, memory_bytes=v), "memory_bytes", True, False),
    "SimulationConfig.max_instances": (
        lambda v: SimulationConfig(seed=0, memory_bytes=GB, max_instances=v), "max_instances", True, True),
    "_draws_in_python": (_seed_without_numpy, "seed", False, False),
    "BenchRun.seed": (
        lambda v: BenchRun(TARGET, TrafficPattern.steady(1, 1), seed=v), "seed", False, False),
    "BenchRun.n_warmup": (
        lambda v: BenchRun(TARGET, TrafficPattern.steady(1, 1), n_warmup=v), "n_warmup", False, False),
    "StubServer": (_stub, "fail_every", True, False, None),
    "warmup_filter": (lambda v: warmup_filter(SampleSet.from_values([1.0]), v), "n_warmup", False, False),
    "PricingModel.billing_granularity_ms": (
        lambda v: PricingModel(Decimal(0), Decimal(0), billing_granularity_ms=v),
        "billing_granularity_ms", True, False),
    "VmBaseline.memory_bytes": (
        lambda v: VmBaseline(Decimal(8), memory_bytes=v), "memory_bytes", True, False),
    "billed_duration": (lambda v: billed_duration(1.5, v), "granularity_ms", True, False),
    "serverless_cost.n_requests": (
        lambda v: serverless_cost(v, 100, GB, PRICING), "n_requests", False, False),
    "serverless_cost.memory_bytes": (
        lambda v: serverless_cost(1, 100, v, PRICING), "memory_bytes", True, False),
    "serverless_cost_total.n_requests": (
        lambda v: serverless_cost_total(v, 100, GB, PRICING), "n_requests", False, False),
    "serverless_cost_total.memory_bytes": (
        lambda v: serverless_cost_total(1, 100, v, PRICING), "memory_bytes", True, False),
    "breakeven": (
        lambda v: breakeven(PRICING, VmBaseline(Decimal(8)), 100, v), "memory_bytes", True, False),
    "build_cost_report.n_requests": (
        lambda v: build_cost_report(v, 100, GB, PRICING).assumptions, "n_requests", False, False),
    "build_cost_report.memory_bytes": (
        lambda v: build_cost_report(1, 100, v, PRICING).assumptions, "memory_bytes", True, False),
    "cost_from_samples": (
        lambda v: cost_from_samples(SampleSet.from_values([1.0]), PRICING, memory_bytes=v).assumptions,
        "memory_bytes", True, False),
    "ModelArtifact.size_bytes": (lambda v: ModelArtifact("m", v, "onnx"), "size_bytes", True, False),
    "ModelArtifact.embedding_dim": (
        lambda v: ModelArtifact("m", MB, "onnx", embedding_dim=v), "embedding_dim", True, False, None),
    "SelectionConstraints.max_package_bytes": (
        lambda v: SelectionConstraints(v, 0, RUNTIME, "f1"), "max_package_bytes", True, False),
    "SelectionConstraints.code_bytes": (
        lambda v: SelectionConstraints(GB, v, RUNTIME, "f1"), "code_bytes", False, False),
    "RuntimeLibrary.size_bytes": (
        lambda v: RuntimeLibrary("r", v, frozenset({"onnx"})), "size_bytes", True, False),
    "DeploymentPackage.code_bytes": (
        lambda v: DeploymentPackage(v, RUNTIME, MODEL), "code_bytes", False, False),
    "DeploymentPlan.memory_bytes": (
        lambda v: DeploymentPlan("aws", PACKAGE, v), "memory_bytes", True, False),
    "ProviderLimits.max_package_bytes": (
        lambda v: _limits(max_package_bytes=v), "max_package_bytes", True, True),
    "ProviderLimits.max_memory_bytes": (
        lambda v: _limits(max_memory_bytes=v), "max_memory_bytes", True, False),
    "ProviderLimits.max_request_bytes": (
        lambda v: _limits(max_request_bytes=v), "max_request_bytes", True, False),
    "CpuScaling.bytes_per_full_cpu": (
        lambda v: CpuScaling(bytes_per_full_cpu=v), "bytes_per_full_cpu", True, False),
    "effective_cpu": (lambda v: effective_cpu(v, CpuScaling()), "memory_bytes", True, False),
    "SimulationResult.memory_bytes": (
        lambda v: SimulationResult((), (), (), (), (), (), (), 0.0, None, 0.0, v), "memory_bytes",
        True, False),
}


def bad_values(call, field, positive, unlimited, *none_default):
    """The values ``field`` refuses: every non-integer, and the integer just below its range."""
    values = [True, 2.5, 3.0, math.inf, math.nan, "4", 0 if positive else -1]
    return values + [None] * (not none_default) + [UNLIMITED] * (not unlimited)


@pytest.mark.parametrize("site, value", [(site, value) for site in sorted(SITES)
                                         for value in bad_values(*SITES[site])],
                         ids=lambda item: item if isinstance(item, str) else repr(item))
def test_every_site_refuses_a_value_that_is_not_its_integer(site, value):
    call, field, positive, unlimited, *_ = SITES[site]
    kind = ("a positive integer or UNLIMITED" if unlimited else "a positive integer" if positive
            else "a non-negative integer")
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{field} must be {kind}, got {value!r}"


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_takes_a_numpy_integer_as_a_plain_int(site):
    call, field, *_ = SITES[site]
    holder = call(np.int64(7))
    if hasattr(holder, field):  # a function that keeps no copy only has to take it
        assert type(getattr(holder, field)) is int and getattr(holder, field) == 7


def test_unlimited_passes_where_the_field_takes_it():
    assert SITES["SimulationConfig.max_instances"][0](UNLIMITED).max_instances is UNLIMITED
    assert SITES["ProviderLimits.max_package_bytes"][0](UNLIMITED).max_package_bytes is UNLIMITED
    assert check_int(UNLIMITED, "x", positive=True, unlimited=True) is UNLIMITED


def test_a_long_value_is_shortened_in_the_message():
    message = r"^n_requests must be a non-negative integer, got -9{17}\.\.\.9{19}$"
    with pytest.raises(DomainError, match=message):
        check_int(-int("9" * 4000), "n_requests")
