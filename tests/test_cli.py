"""CLI tests (repro.cli)."""

import pytest

from repro.cli import main


class TestLayerCommand:
    def test_basic_layer(self, capsys):
        code = main(["layer", "--depth", "32", "--size", "6", "--filters", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "baseline cycles" in out

    def test_structural_check_small(self, capsys):
        code = main([
            "layer", "--depth", "8", "--size", "5", "--filters", "2",
            "--kernel", "2", "--pad", "0", "--structural",
            "--units", "1", "--lanes", "2", "--filters-per-unit", "2",
            "--brick-size", "2",
        ])
        assert code == 0
        assert "structural check: ok" in capsys.readouterr().out

    def test_first_layer_not_accelerated(self, capsys):
        code = main([
            "layer", "--depth", "3", "--size", "8", "--filters", "4",
            "--first-layer",
        ])
        assert code == 0
        assert "speedup:         1.000x" in capsys.readouterr().out

    def test_invalid_geometry(self, capsys):
        code = main(["layer", "--size", "2", "--kernel", "5", "--pad", "0"])
        assert code == 2

    def test_groups_not_dividing_the_layer_rejected(self, capsys):
        code = main([
            "layer", "--groups", "3", "--depth", "32", "--filters", "16",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not divisible by groups 3" in captured.err

    def test_all_zero_sparsity_rejected(self, capsys):
        code = main(["layer", "--depth", "16", "--size", "5", "--sparsity", "1.0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: zero_fraction")

    def test_bad_weight_sparsity_rejected_before_printing(self, capsys):
        code = main([
            "layer", "--depth", "16", "--size", "5", "--filters", "4",
            "--weight-sparsity", "1.5", "--backends", "all",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: fraction")

    def test_unknown_backend_rejected_before_printing(self, capsys):
        code = main(["layer", "--depth", "16", "--size", "5", "--backends", "tpu"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown backend 'tpu'" in captured.err

    def test_free_empty_bricks_flag(self, capsys):
        code = main([
            "layer", "--depth", "16", "--size", "5", "--filters", "4",
            "--sparsity", "0.8", "--free-empty-bricks",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero     events: 0.0%" in out


class TestNetworkCommand:
    def test_network_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path))
        code = main(["network", "alex", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "total speedup" in out

    def test_network_with_custom_node_geometry(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CNVLUTIN_CACHE_DIR", str(tmp_path))
        code = main([
            "network", "alex", "--scale", "tiny",
            "--units", "8", "--brick-size", "8",
        ])
        assert code == 0
        assert "total speedup" in capsys.readouterr().out

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["network", "resnet50"])


class TestFlagValidation:
    """Junk flag values exit 2 at argument parsing, naming the flag,
    before anything is built or printed."""

    @pytest.mark.parametrize(
        "command", [["layer"], ["network", "alex", "--scale", "tiny"]],
        ids=["layer", "network"],
    )
    @pytest.mark.parametrize("flag,value", [
        ("--units", "-1"),
        ("--lanes", "0"),
        ("--filters-per-unit", "0"),
        ("--brick-size", "0"),
    ])
    def test_junk_arch_value_exits_2(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err
        assert "must be positive" in captured.err

    def test_network_has_no_process_pool_flags(self, capsys):
        # Two networks: the pool branch only ever ran for more than one.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "network", "alex", "cnnS", "--scale", "tiny",
                "--jobs", "2", "--unit-timeout", "-1",
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2 --unit-timeout -1" in captured.err
