"""faasplan's value classes behave as the dataclasses they replaced.

Each class is compared with a twin: the same class body, source and all,
decorated by the real ``dataclasses``. Nested values are twins too, so
``asdict``, ``repr``, equality and hashing see the same structure on both
sides.
"""

import __future__
import dataclasses
import inspect
import itertools
import math
import sys
import textwrap
from decimal import Decimal
from pathlib import Path

import pytest

from faasplan import _record, catalog, cli, cost, harness, metrics, packaging, providers, simulator
from faasplan.catalog import CandidateEvaluation, ModelArtifact, SelectionConstraints
from faasplan.cli import Scenario
from faasplan.cost import CostAssumptions, CostReport, PricingModel, VmBaseline
from faasplan.errors import DomainError
from faasplan.harness import BenchResult, BenchRun, BenchTarget
from faasplan.metrics import SampleSet, Summary
from faasplan.packaging import DeploymentPackage, DeploymentPlan, FitRow, RuntimeLibrary
from faasplan.providers import CpuScaling, ProviderLimits, ValidationReport, Violation
from faasplan.simulator import (
    InvocationRecord,
    LatencyProfile,
    SimulationConfig,
    SimulationResult,
    TrafficPattern,
)
from faasplan.units import GB, MB, UNLIMITED

RUNTIME = RuntimeLibrary("onnxruntime", 40 * MB, frozenset({"onnx"}))
MODEL = ModelArtifact("tinybert", 60 * MB, "onnx", {"f1_macro": 0.8})
PACKAGE = DeploymentPackage(MB, RUNTIME, MODEL)
LIMITS = ProviderLimits("aws", 250 * MB, 10 * GB, 6 * MB)
PRICING = PricingModel(Decimal("0.2"), Decimal("0.0000166667"))
SAMPLES = SampleSet((1.0, 2.0))
SUMMARY = Summary(2, 1.5, 1.0, 2.0, 2.0)
PATTERN = TrafficPattern.poisson(10.0, 1.0)
TARGET = BenchTarget("http://127.0.0.1:8080/")
ASSUMPTIONS = CostAssumptions(10, Decimal("100"), GB, Decimal(1))

# Value class -> keyword arguments of two different valid instances; the
# first names every required field.
EXAMPLES = {
    ModelArtifact: (
        dict(name="tinybert", size_bytes=60 * MB, format="onnx", metrics={"f1_macro": 0.8}),
        dict(name="mobilebert", size_bytes=100 * MB, format="onnx", embedding_dim=512),
    ),
    SelectionConstraints: (
        dict(max_package_bytes=250 * MB, code_bytes=MB, runtime=RUNTIME, objective_metric="f1_macro"),
        dict(max_package_bytes=500 * MB, code_bytes=0, runtime=RUNTIME, objective_metric="acc",
             min_score=0.5),
    ),
    CandidateEvaluation: (
        dict(model=MODEL, package_bytes=101 * MB, score=0.8, feasible=True, reason=None),
        dict(model=MODEL, package_bytes=None, score=None, feasible=False, reason="too large"),
    ),
    Scenario: (
        dict(path=Path("a.json"), name="a", provider=LIMITS, pricing=PRICING, catalog=[MODEL],
             package=PACKAGE, memory_bytes=GB, profile=None, traffic=PATTERN, sim_config=None,
             memory_sweep_mb=[128, 256], cost_block={"months": 1}, vm=None),
        dict(path=Path("b.json"), name=None, provider=None, pricing=None, catalog=None,
             package=None, memory_bytes=2 * GB, profile=LatencyProfile(GB, SAMPLES), traffic=None,
             sim_config=SimulationConfig(1, GB), memory_sweep_mb=None, cost_block=None,
             vm=VmBaseline(Decimal("30"))),
    ),
    PricingModel: (
        dict(per_million_requests=Decimal("0.2"), per_gb_second=Decimal("0.0000166667")),
        dict(per_million_requests=Decimal("0.4"), per_gb_second=Decimal("0.0000025"),
             billing_granularity_ms=100, currency="EUR"),
    ),
    VmBaseline: (
        dict(monthly_price=Decimal("30")),
        dict(monthly_price=Decimal("60.5"), memory_bytes=2 * GB),
    ),
    CostAssumptions: (
        dict(n_requests=10, billed_ms_per_request=Decimal("100"), memory_bytes=GB, months=Decimal(1)),
        dict(n_requests=0, billed_ms_per_request=None, memory_bytes=MB, months=Decimal("0.5")),
    ),
    CostReport: (
        dict(serverless_total=Decimal("1.5"), vm_total=Decimal("30"), breakeven_requests_per_month=3,
             assumptions=ASSUMPTIONS),
        dict(serverless_total=Decimal("0"), vm_total=Decimal("0"), breakeven_requests_per_month=None,
             assumptions=ASSUMPTIONS, currency="EUR"),
    ),
    BenchTarget: (
        dict(url="http://127.0.0.1:8080/"),
        dict(url="http://127.0.0.1:8080/x", method="GET", headers={"a": "b"}, payload=b"x",
             timeout_ms=5.0),
    ),
    BenchRun: (
        dict(target=TARGET, pattern=PATTERN),
        dict(target=TARGET, pattern=PATTERN, n_warmup=0, provider_limits=LIMITS, seed=3),
    ),
    BenchResult: (
        dict(attempts=2, samples=SAMPLES, warmup_excluded=0, errors={}, scheduled_ms=(0.0, 1.0),
             sent_ms=(0.1, 1.1)),
        dict(attempts=3, samples=SAMPLES, warmup_excluded=0, errors={"http_500": 1},
             scheduled_ms=(0.0, 1.0, 2.0), sent_ms=(0.1, 1.1, 2.1), server_exec=SAMPLES),
    ),
    SampleSet: (
        dict(values=(1.0, 2.0)),
        dict(values=(3.0,), timestamps=(0.0,), cold=(True,), instances=("i0",)),
    ),
    Summary: (
        dict(count=1, mean=1.0, q50=1.0, q95=1.0, q99=1.0),
        dict(count=2, mean=1.5, q50=1.0, q95=2.0, q99=2.0),
    ),
    RuntimeLibrary: (
        dict(name="onnxruntime", size_bytes=40 * MB, model_formats=frozenset({"onnx"})),
        dict(name="tflite", size_bytes=5 * MB, model_formats={"tflite", "onnx"}),
    ),
    DeploymentPackage: (
        dict(code_bytes=MB, runtime=RUNTIME, model=MODEL),
        dict(code_bytes=0, runtime=RUNTIME, model=MODEL),
    ),
    DeploymentPlan: (
        dict(provider="aws", package=PACKAGE, memory_bytes=GB),
        dict(provider="gcp", package=PACKAGE, memory_bytes=2 * GB),
    ),
    FitRow: (
        dict(provider="aws", passed=True, headroom_bytes=MB),
        dict(provider="gcp", passed=True, headroom_bytes=UNLIMITED),
    ),
    ProviderLimits: (
        dict(name="aws", max_package_bytes=250 * MB, max_memory_bytes=10 * GB,
             max_request_bytes=6 * MB),
        dict(name="any", max_package_bytes=UNLIMITED, max_memory_bytes=GB, max_request_bytes=MB),
    ),
    CpuScaling: (
        dict(),
        dict(bytes_per_full_cpu=1024 * MB, max_useful_cpus=2.0),
    ),
    Violation: (
        dict(limit_name="memory", limit_value=GB, actual_value=2 * GB),
        dict(limit_name="package_size", limit_value=250 * MB, actual_value=300 * MB),
    ),
    ValidationReport: (
        dict(violations=()),
        dict(violations=(Violation("memory", GB, 2 * GB),)),
    ),
    LatencyProfile: (
        dict(reference_memory_bytes=GB, samples=SAMPLES),
        dict(reference_memory_bytes=2 * GB, samples=SampleSet((5.0,))),
    ),
    TrafficPattern: (
        dict(kind="poisson_constant", rate_rps=10.0, duration_s=1.0),
        dict(kind="trace_replay", timestamps=(0.0, 1.0)),
    ),
    SimulationConfig: (
        dict(seed=1, memory_bytes=GB),
        dict(seed=2, memory_bytes=2 * GB, scaling=CpuScaling(1024 * MB), keep_alive_s=math.inf,
             cold_start_ms=0.0, max_instances=4),
    ),
    SimulationResult: (
        dict(records=(), cold_fraction=0.0, latency_summary=None, total_billed_gb_s=0.0,
             memory_bytes=GB),
        dict(records=(InvocationRecord(0.0, 0.0, 2.0, True, 0, 1.0, 1.0),), cold_fraction=1.0,
             latency_summary=SUMMARY, total_billed_gb_s=0.001, memory_bytes=GB),
    ),
}


def make_twin(cls):
    """``cls``'s own class body, decorated by ``dataclasses`` in its module's namespace.

    The twins made so far stand in for their classes there, so a default
    such as ``SimulationConfig.scaling`` is a twin too.
    """
    namespace = {**vars(sys.modules[cls.__module__]),
                 **{twin.__name__: twin for twin in TWINS.values()},
                 "dataclass": dataclasses.dataclass, "field": dataclasses.field}
    code = compile(textwrap.dedent(inspect.getsource(cls)), inspect.getsourcefile(cls), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[cls.__name__]


TWINS = {}
for _cls in EXAMPLES:  # a class's defaults come before it in EXAMPLES
    TWINS[_cls] = make_twin(_cls)


def to_twin(value):
    """``value`` with every value-class instance in it replaced by its twin."""
    twin = TWINS.get(type(value))
    if twin is not None:
        return twin(**{f.name: to_twin(getattr(value, f.name)) for f in dataclasses.fields(twin)})
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return type(value)(map(to_twin, value))
    return value


def build(cls, *args, **kwargs):
    """One instance of ``cls`` and one of its twin, from the same arguments."""
    twin_args = [to_twin(v) for v in args]
    twin_kwargs = {k: to_twin(v) for k, v in kwargs.items()}
    return cls(*args, **kwargs), TWINS[cls](*twin_args, **twin_kwargs)


def outcome(action):
    """What ``action()`` did: returned (None), or which error it raised."""
    try:
        action()
    except (TypeError, AttributeError) as exc:  # messages differ between the two
        return next(kind for kind in (TypeError, AttributeError) if isinstance(exc, kind))
    except Exception as exc:
        return type(exc), str(exc)
    return None


def attempt(action):
    """``repr`` of what ``action()`` returned, or the error it raised."""
    try:
        return repr(action())
    except Exception as exc:
        return type(exc), str(exc)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.fixture(params=list(EXAMPLES), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_every_value_class_has_examples():
    defined = {value for module in (catalog, cli, cost, harness, metrics, packaging, providers,
                                    simulator)
               for value in vars(module).values()
               if isinstance(value, type) and "__record_fields__" in vars(value)}
    assert defined == set(EXAMPLES)


def test_fields_and_class_defaults(cls):
    twin = TWINS[cls]
    assert tuple(cls.__record_fields__) == tuple(f.name for f in dataclasses.fields(twin))
    for f in dataclasses.fields(twin):
        # Plain defaults stay readable on the class; default factories do not.
        assert hasattr(cls, f.name) == hasattr(twin, f.name)
        assert repr(getattr(cls, f.name, None)) == repr(getattr(twin, f.name, None))


def test_repr_equality_and_hash(cls):
    for a, b in itertools.product(EXAMPLES[cls], repeat=2):
        real_a, twin_a = build(cls, **a)
        real_b, twin_b = build(cls, **b)
        assert repr(real_a) == repr(twin_a)
        assert (real_a == real_b, real_a != real_b) == (twin_a == twin_b, twin_a != twin_b)
        assert hash_or_error(real_a) == hash_or_error(twin_a)
        # Instances of different classes are never equal, whatever their fields.
        assert (real_a == twin_a, real_a != twin_a, twin_a == real_a) == (False, True, False)
    assert (cls.__hash__ is None) == (TWINS[cls].__hash__ is None)


def test_positional_arguments_bind_in_field_order(cls):
    real, _ = build(cls, **EXAMPLES[cls][1])
    values = [getattr(real, f.name) for f in dataclasses.fields(TWINS[cls])]
    real_positional, twin_positional = build(cls, *values)
    assert repr(real_positional) == repr(twin_positional) == repr(real)


def test_frozen_instances_refuse_assignment_and_deletion(cls):
    name = dataclasses.fields(TWINS[cls])[0].name
    for target in (name, "not_a_field"):
        for action in (lambda obj: setattr(obj, target, 1), lambda obj: delattr(obj, target)):
            real, twin = build(cls, **EXAMPLES[cls][0])
            assert outcome(lambda: action(real)) == outcome(lambda: action(twin))
            assert vars(real).keys() == vars(twin).keys()
            assert repr(getattr(real, target, None)) == repr(getattr(twin, target, None))


def test_frozen_error_is_an_attribute_error():
    real, _ = build(Violation, **EXAMPLES[Violation][0])
    with pytest.raises(_record.FrozenInstanceError, match="cannot assign to field 'limit_name'"):
        real.limit_name = "x"
    with pytest.raises(AttributeError, match="cannot delete field 'limit_name'"):
        del real.limit_name


def test_default_factories_give_each_instance_a_fresh_value(cls):
    twin = TWINS[cls]
    required = {f.name: EXAMPLES[cls][0][f.name] for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    for f in dataclasses.fields(twin):
        if f.default_factory is not dataclasses.MISSING:
            real_a, twin_a = build(cls, **required)
            real_b, twin_b = build(cls, **required)
            assert getattr(twin_a, f.name) is not getattr(twin_b, f.name)
            assert getattr(real_a, f.name) is not getattr(real_b, f.name)
            assert getattr(real_a, f.name) == getattr(twin_a, f.name)


def test_bad_arguments_raise_type_error(cls):
    example = EXAMPLES[cls][0]
    first = dataclasses.fields(TWINS[cls])[0].name
    value = getattr(cls(**example), first)
    calls = [
        ((value,), {**example, first: value}),  # duplicate
        ((), {**example, "not_a_field": 1}),  # unknown
        ((value,) * (len(cls.__record_fields__) + 1), {}),  # too many
    ]
    if example:  # the first example names every required field
        missing = next(iter(example))
        calls.append(((), {k: v for k, v in example.items() if k != missing}))
    for args, kwargs in calls:
        assert outcome(lambda: cls(*args, **kwargs)) is TypeError
        assert outcome(lambda: TWINS[cls](*args, **kwargs)) is TypeError


def test_asdict(cls):
    for example in EXAMPLES[cls]:
        real, twin = build(cls, **example)
        assert _record.asdict(real) == dataclasses.asdict(twin)
    with pytest.raises(TypeError):
        _record.asdict(cls)  # the class, not an instance
    with pytest.raises(TypeError):
        dataclasses.asdict(TWINS[cls])


def test_replace_reruns_post_init(cls, monkeypatch):
    twin = TWINS[cls]
    assert hasattr(cls, "__post_init__") == hasattr(twin, "__post_init__")
    calls = []
    for kind in (cls, twin):
        if hasattr(kind, "__post_init__"):
            def counting(self, post_init=kind.__post_init__):
                calls.append(type(self))
                post_init(self)
            monkeypatch.setattr(kind, "__post_init__", counting)
    first, second = EXAMPLES[cls]
    for name, value in second.items():
        real, twin_instance = build(cls, **first)
        del calls[:]
        assert attempt(lambda: _record.replace(real, **{name: value})) == attempt(
            lambda: dataclasses.replace(twin_instance, **{name: to_twin(value)}))
        assert calls == ([cls, twin] if hasattr(cls, "__post_init__") else [])
    real, twin_instance = build(cls, **first)
    assert outcome(lambda: _record.replace(real, not_a_field=1)) is TypeError
    assert outcome(lambda: dataclasses.replace(twin_instance, not_a_field=1)) is TypeError


def test_replace_runs_the_checks_again():
    real, twin = build(SimulationConfig, **EXAMPLES[SimulationConfig][0])
    assert outcome(lambda: _record.replace(real, memory_bytes=0)) == (
        outcome(lambda: dataclasses.replace(twin, memory_bytes=0))) == (
        DomainError, "memory_bytes must be positive")


def test_non_default_field_after_a_default_is_refused():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        @_record.dataclass
        class Bad:
            a: int = 0
            b: int
