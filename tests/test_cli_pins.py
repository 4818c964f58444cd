"""Every default CLI report keeps the exit code and the sha256 pinned in golden_cli.json."""

import golden


def test_cli_reports_match_pinned(tmp_path):
    pinned = golden.load(golden.CLI_PATH)
    computed = golden.cli_pins(tmp_path)
    assert set(computed) == set(pinned)
    assert [name for name in pinned if computed[name] != pinned[name]] == []
