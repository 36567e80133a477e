import copy
import json

import pytest

from faasplan import (
    GB,
    MB,
    UNLIMITED,
    CpuScaling,
    DeploymentPackage,
    DomainError,
    ModelArtifact,
    ProviderLimits,
    RuntimeLibrary,
    ScenarioError,
    Unlimited,
    Violation,
    default_provider_limits,
    effective_cpu,
    load_provider_limits,
    validate_plan,
)
from faasplan.packaging import DeploymentPlan
from faasplan.providers import (
    parse_provider_limits,
    validation_report_to_dict,
)

RUNTIME = RuntimeLibrary(name="rt", size_bytes=10 * MB, model_formats=frozenset({"onnx"}))


def plan(model_mb, memory_mb):
    model = ModelArtifact(name="m", size_bytes=model_mb * MB, format="onnx")
    package = DeploymentPackage(code_bytes=MB, runtime=RUNTIME, model=model)
    return DeploymentPlan(provider="p", package=package, memory_bytes=memory_mb * MB)


class TestUnlimited:
    def test_singleton(self):
        assert Unlimited() is UNLIMITED
        assert copy.copy(UNLIMITED) is UNLIMITED
        assert copy.deepcopy(UNLIMITED) is UNLIMITED

    def test_repr(self):
        assert repr(UNLIMITED) == "UNLIMITED"

    def test_is_not_an_int(self):
        assert UNLIMITED != 0
        assert not isinstance(UNLIMITED, int)


def test_limits_accept_unlimited_package():
    lim = ProviderLimits(
        name="x",
        max_package_bytes=UNLIMITED,
        max_memory_bytes=GB,
        max_request_bytes=MB,
    )
    assert lim.max_package_bytes is UNLIMITED


def test_limits_reject_zero():
    # 0 would be ambiguous with "no limit"; the absent value is UNLIMITED.
    with pytest.raises(DomainError, match="never 0"):
        ProviderLimits("x", 0, GB, MB)


@pytest.mark.parametrize("field", ["max_memory_bytes", "max_request_bytes"])
def test_limits_require_finite_memory_and_request(field):
    kwargs = dict(max_package_bytes=UNLIMITED, max_memory_bytes=GB, max_request_bytes=MB)
    kwargs[field] = UNLIMITED
    with pytest.raises(DomainError):
        ProviderLimits(name="x", **kwargs)


def test_limits_reject_negative_and_bool():
    with pytest.raises(DomainError):
        ProviderLimits("x", -5, GB, MB)
    with pytest.raises(DomainError):
        ProviderLimits("x", True, GB, MB)


def test_effective_cpu_proportional_then_saturated():
    scaling = CpuScaling(bytes_per_full_cpu=1769 * MB, max_useful_cpus=1.0)
    assert effective_cpu(1769 * MB, scaling) == 1.0
    assert effective_cpu(1769 * MB // 2, scaling) == pytest.approx(0.5, rel=1e-12)
    # past the grant that buys max_useful_cpus, more memory buys nothing
    assert effective_cpu(4 * GB, scaling) == 1.0
    assert effective_cpu(10 * GB, scaling) == 1.0


def test_effective_cpu_monotone_nondecreasing():
    scaling = CpuScaling()
    values = [effective_cpu(m, scaling) for m in range(128 * MB, 6 * GB, 256 * MB)]
    assert values == sorted(values)


def test_effective_cpu_rejects_nonpositive_memory():
    with pytest.raises(DomainError):
        effective_cpu(0, CpuScaling())


def test_cpu_scaling_validation():
    with pytest.raises(DomainError):
        CpuScaling(bytes_per_full_cpu=0)
    with pytest.raises(DomainError):
        CpuScaling(max_useful_cpus=0.5)
    CpuScaling(max_useful_cpus=6.0)  # fine


def test_validate_plan_passes_within_limits():
    limits = ProviderLimits("p", 250 * MB, 10 * GB, 6 * MB)
    report = validate_plan(plan(model_mb=56, memory_mb=1024), limits)
    assert report.passed
    assert report.violations == ()


def test_validate_plan_flags_oversized_package():
    limits = ProviderLimits("p", 250 * MB, 10 * GB, 6 * MB)
    report = validate_plan(plan(model_mb=400, memory_mb=1024), limits)
    assert not report.passed
    assert [v.limit_name for v in report.violations] == ["package_size"]
    v = report.violations[0]
    assert v.limit_value == 250 * MB
    assert v.actual_value == 411 * MB  # 1 code + 10 runtime + 400 model


def test_validate_plan_flags_memory():
    limits = ProviderLimits("p", UNLIMITED, 2 * GB, 6 * MB)
    report = validate_plan(plan(model_mb=56, memory_mb=4096), limits)
    assert [v.limit_name for v in report.violations] == ["memory"]


def test_validate_plan_collects_every_violation():
    limits = ProviderLimits("p", 50 * MB, GB, 6 * MB)
    report = validate_plan(plan(model_mb=400, memory_mb=4096), limits)
    assert {v.limit_name for v in report.violations} == {"package_size", "memory"}


def test_unlimited_package_never_violated():
    limits = ProviderLimits("p", UNLIMITED, 100 * GB, 6 * MB)
    assert validate_plan(plan(model_mb=5000, memory_mb=1024), limits).passed


def test_report_dict_round_trip():
    report = validate_plan(plan(model_mb=400, memory_mb=1024),
                           ProviderLimits("p", 250 * MB, 10 * GB, 6 * MB))
    payload = validation_report_to_dict(report)
    assert payload["passed"] is False
    json.dumps(payload)  # stays JSON-serializable


def test_bundled_limits_load():
    limits = default_provider_limits()
    assert set(limits) == {"aws", "aws-container", "azure", "gcp"}
    assert limits["aws"].max_package_bytes == 250 * MB
    assert limits["aws"].max_memory_bytes == 10 * GB
    assert limits["azure"].max_package_bytes is UNLIMITED
    assert limits["gcp"].max_package_bytes == 500 * MB


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(ScenarioError, match="top-level keys"):
        parse_provider_limits({"version": 1, "providers": [], "extra": 1})


def test_parse_rejects_unknown_entry_key():
    entry = {"name": "p", "max_package_bytes": 1, "max_memory_bytes": 1, "max_request_bytes": 1,
             "color": "red"}
    with pytest.raises(ScenarioError, match="unknown keys"):
        parse_provider_limits({"version": 1, "providers": [entry]})


def test_parse_rejects_duplicates():
    entry = {"name": "p", "max_package_bytes": None, "max_memory_bytes": GB, "max_request_bytes": MB}
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_provider_limits({"version": 1, "providers": [entry, dict(entry)]})


def test_parse_null_means_unlimited():
    entry = {"name": "p", "max_package_bytes": None, "max_memory_bytes": GB, "max_request_bytes": MB}
    parsed = parse_provider_limits({"version": 1, "providers": [entry]})
    assert parsed["p"].max_package_bytes is UNLIMITED


def test_parse_rejects_wrong_version():
    with pytest.raises(ScenarioError, match="version"):
        parse_provider_limits({"version": 99, "providers": []})


def test_load_reports_json_line_numbers(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "providers": [,]\n}\n')
    with pytest.raises(ScenarioError, match="broken.json:3"):
        load_provider_limits(path)


def test_violation_fields():
    v = Violation("package_size", 10, 20)
    assert (v.limit_name, v.limit_value, v.actual_value) == ("package_size", 10, 20)
