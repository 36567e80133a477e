"""Which models actually fit inside a serverless deployment package?

Walks the bundled classifier catalog, sizes each deployment bundle
(code + onnxruntime + model), checks it against the platform caps, and
then lets the selector pick the best model under two different budgets.
"""

from faasplan import (
    MB,
    DeploymentPackage,
    SelectionConstraints,
    default_provider_limits,
    fit_matrix,
    load_catalog,
    load_runtime_libraries,
    select_model,
)

providers = default_provider_limits()
runtime = load_runtime_libraries()["onnxruntime"]
models = load_catalog("sentiment")
code_bytes = 1 * MB

print(f"runtime: {runtime.name} ({runtime.size_bytes // MB} MB), code: 1 MB\n")

targets = [providers["aws"], providers["gcp"]]
header = f"{'model':<14} {'bundle':>8}  " + "  ".join(f"{p.name:>12}" for p in targets)
print(header)
for model in models:
    package = DeploymentPackage(code_bytes, runtime, model)
    row = fit_matrix(package, targets)
    cells = []
    for fit in row:
        mark = "fits" if fit.passed else "too big"
        cells.append(f"{mark:>12}")
    print(f"{model.name:<14} {package.total_bytes // MB:>5} MB  " + "  ".join(cells))

# The selector prefers quality, then smaller bundles, then names.
aws_budget = providers["aws"].max_package_bytes
for budget in (aws_budget, 75 * MB):
    constraints = SelectionConstraints(
        max_package_bytes=budget,
        code_bytes=code_bytes,
        runtime=runtime,
        objective_metric="f1_macro",
    )
    chosen = select_model(models, constraints)
    print(
        f"\nbest f1_macro within {budget // MB} MB: {chosen.name} "
        f"(f1={chosen.score('f1_macro')}, model {chosen.size_bytes // MB} MB)"
    )
