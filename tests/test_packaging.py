import pytest

from faasplan import (
    GB,
    MB,
    UNLIMITED,
    DeploymentPackage,
    DomainError,
    IncompatibleFormatError,
    ModelArtifact,
    ProviderLimits,
    RuntimeLibrary,
    bytes_on_disk,
    default_provider_limits,
    fit_matrix,
    load_runtime_libraries,
)
from faasplan.packaging import DEFAULT_CODE_BYTES, parse_runtime_libraries

ONNX_RT = RuntimeLibrary(name="onnxruntime", size_bytes=14 * MB, model_formats=frozenset({"onnx"}))


def onnx_model(name, size_mb):
    return ModelArtifact(name=name, size_bytes=size_mb * MB, format="onnx")


def test_runtime_supports():
    assert ONNX_RT.supports("onnx")
    assert not ONNX_RT.supports("savedmodel")


def test_runtime_validation():
    with pytest.raises(DomainError):
        RuntimeLibrary(name="", size_bytes=1, model_formats=frozenset({"onnx"}))
    with pytest.raises(DomainError):
        RuntimeLibrary(name="r", size_bytes=0, model_formats=frozenset({"onnx"}))
    with pytest.raises(DomainError):
        RuntimeLibrary(name="r", size_bytes=1, model_formats=frozenset())


def test_total_bytes_is_the_sum():
    package = DeploymentPackage(DEFAULT_CODE_BYTES, ONNX_RT, onnx_model("m", 56))
    assert package.total_bytes == 1 * MB + 14 * MB + 56 * MB


def test_zero_code_bytes_allowed():
    package = DeploymentPackage(code_bytes=0, runtime=ONNX_RT, model=onnx_model("m", 56))
    assert package.total_bytes == 70 * MB


def test_negative_code_bytes_rejected():
    with pytest.raises(DomainError):
        DeploymentPackage(-1, ONNX_RT, onnx_model("m", 56))


def test_format_mismatch_refused_at_assembly():
    tf_model = ModelArtifact(name="m", size_bytes=400 * MB, format="savedmodel")
    with pytest.raises(IncompatibleFormatError, match="cannot execute"):
        DeploymentPackage(MB, ONNX_RT, tf_model)


def test_fit_matrix_headroom():
    package = DeploymentPackage(MB, ONNX_RT, onnx_model("m", 56))  # 71 MB
    limits = [
        ProviderLimits("tight", 64 * MB, GB, MB),
        ProviderLimits("roomy", 250 * MB, GB, MB),
        ProviderLimits("open", UNLIMITED, GB, MB),
    ]
    rows = fit_matrix(package, limits)
    assert [r.provider for r in rows] == ["tight", "roomy", "open"]
    assert [r.passed for r in rows] == [False, True, True]
    assert rows[0].headroom_bytes == -7 * MB
    assert rows[1].headroom_bytes == 179 * MB
    assert rows[2].headroom_bytes is UNLIMITED


def test_fit_matrix_boundary_is_inclusive():
    package = DeploymentPackage(0, ONNX_RT, onnx_model("m", 50))  # exactly 64 MB
    row, = fit_matrix(package, [ProviderLimits("p", 64 * MB, GB, MB)])
    assert row.passed
    assert row.headroom_bytes == 0


def test_fit_matrix_needs_providers():
    package = DeploymentPackage(MB, ONNX_RT, onnx_model("m", 56))
    with pytest.raises(DomainError):
        fit_matrix(package, [])


def test_bundled_models_against_bundled_limits():
    """The stock catalog splits cleanly across the zip caps."""
    providers = default_provider_limits()
    aws, gcp = providers["aws"], providers["gcp"]
    sizes = {"TinyBERT": 56, "MobileBERT": 98, "BERT_BASE_CLS": 420}
    fits = {}
    for name, mb in sizes.items():
        package = DeploymentPackage(DEFAULT_CODE_BYTES, ONNX_RT, onnx_model(name, mb))
        rows = {r.provider: r.passed for r in fit_matrix(package, [aws, gcp])}
        fits[name] = (rows["aws"], rows["gcp"])
    assert fits["TinyBERT"] == (True, True)
    assert fits["MobileBERT"] == (True, True)
    assert fits["BERT_BASE_CLS"] == (False, True)


def test_bytes_on_disk_file_and_dir(tmp_path):
    f = tmp_path / "blob.bin"
    f.write_bytes(b"x" * 1234)
    assert bytes_on_disk(f) == 1234
    sub = tmp_path / "d" / "nested"
    sub.mkdir(parents=True)
    (sub / "a").write_bytes(b"x" * 100)
    (tmp_path / "d" / "b").write_bytes(b"x" * 11)
    assert bytes_on_disk(tmp_path / "d") == 111


def test_bundled_runtimes_load():
    runtimes = load_runtime_libraries()
    assert set(runtimes) == {"onnxruntime", "tflite", "pytorch", "tensorflow"}
    assert runtimes["onnxruntime"].size_bytes == 14 * MB
    assert runtimes["pytorch"].supports("torchscript")
    assert not runtimes["tflite"].supports("onnx")


def test_parse_runtimes_size_mb_alias():
    payload = {"version": 1, "runtimes": [
        {"name": "r", "size_mb": 6, "model_formats": ["tflite"]},
    ]}
    assert parse_runtime_libraries(payload)["r"].size_bytes == 6 * MB


def test_parse_runtimes_rejects_both_size_keys():
    payload = {"version": 1, "runtimes": [
        {"name": "r", "size_mb": 6, "size_bytes": 1, "model_formats": ["tflite"]},
    ]}
    with pytest.raises(Exception, match="exactly one"):
        parse_runtime_libraries(payload)


def test_parse_runtimes_rejects_duplicates():
    entry = {"name": "r", "size_mb": 6, "model_formats": ["tflite"]}
    with pytest.raises(Exception, match="duplicate"):
        parse_runtime_libraries({"version": 1, "runtimes": [entry, dict(entry)]})
