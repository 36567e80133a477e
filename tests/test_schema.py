"""The one envelope every versioned-list fixture goes through."""

import pytest

from faasplan import CatalogError, ScenarioError
from faasplan.catalog import parse_catalog
from faasplan.cost import parse_pricing
from faasplan.packaging import parse_runtime_libraries
from faasplan.providers import parse_provider_limits

PARSERS = {
    "providers": (parse_provider_limits, ScenarioError),
    "profiles": (parse_pricing, ScenarioError),
    "runtimes": (parse_runtime_libraries, ScenarioError),
    "models": (parse_catalog, CatalogError),
}


@pytest.mark.parametrize("list_key", sorted(PARSERS))
@pytest.mark.parametrize("entries, message", [
    (["aws"], r"<src>: \w+ entry: must be an object, got 'aws'"),
    ({"name": "aws"}, r"<src>: '\w+' must be a list"),
    ([{}], r"<src>: \w+ entry: name: missing required key"),
    ([{"name": 7}], r"<src>: \w+ entry: name: must be a string, got 7"),
])
def test_every_fixture_checks_the_same_envelope(list_key, entries, message):
    parse, error = PARSERS[list_key]
    with pytest.raises(error, match=message):
        parse({"version": 1, list_key: entries}, "<src>")


@pytest.mark.parametrize("list_key", sorted(PARSERS))
def test_every_fixture_rejects_other_versions_and_top_level_keys(list_key):
    parse, error = PARSERS[list_key]
    with pytest.raises(error, match="unsupported schema version 2"):
        parse({"version": 2, list_key: []})
    with pytest.raises(error, match="top-level keys"):
        parse({"version": 1, list_key: [], "extra": 1})
    with pytest.raises(error, match="top-level keys"):
        parse([])


@pytest.mark.parametrize("list_key", sorted(PARSERS))
@pytest.mark.parametrize("payload", [
    lambda key: {"version": list(range(20_000)), key: []},
    lambda key: {"version": 1, key: ["x" * 20_000]},
    lambda key: {"version": 1, key: [list(range(20_000))]},
    lambda key: {"version": 1, key: [{"name": {str(i): i for i in range(20_000)}}]},
    lambda key: {"version": 1, key: [{f"k{i}": i for i in range(20_000)}]},
])
def test_error_messages_stay_short_for_huge_values(list_key, payload):
    parse, error = PARSERS[list_key]
    with pytest.raises(error) as exc_info:
        parse(payload(list_key), "<src>")
    assert len(str(exc_info.value)) < 120
