import numpy as np
import pytest

from evsteer.cli import EXIT_DATA, EXIT_USAGE, main
from evsteer.nnet import runtime_network, save_weights

HEADER = "evsteer-net v1\ninput 36 36 1\n"


@pytest.fixture
def weights(tmp_path):
    path = tmp_path / "w.net"
    save_weights(runtime_network(np.random.default_rng(0)), path)
    return str(path)


class TestWeightFileExitCodes:
    @pytest.mark.parametrize("decl", ["conv four 5", "conv 4 4"])
    def test_bad_layer_declaration_is_data_error(self, tmp_path, capsys, decl):
        path = tmp_path / "bad.net"
        path.write_text(HEADER + decl + "\n")
        argv = ["simulate", "--weights", str(path), "--dry-run"]
        assert main(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestDurationExitCodes:
    # u32 microsecond timestamps wrap after 4294.967295 s
    def test_simulate_duration_past_wrap_is_usage_error(self, tmp_path, weights, capsys):
        argv = ["simulate", "--weights", weights, "--duration", "5000",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_USAGE
        assert "4294.967295" in capsys.readouterr().err

    def test_gen_data_duration_past_wrap_is_usage_error(self, tmp_path, capsys):
        argv = ["--set", "gen.duration=5000", "gen-data", "--recordings", "1",
                "--out", str(tmp_path / "gen")]
        assert main(argv) == EXIT_USAGE
        assert "4294.967295" in capsys.readouterr().err
