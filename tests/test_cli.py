import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import voteweight
import voteweight.cli as cli
from voteweight import checks
from voteweight.checks import run_suite
from voteweight.cli import main
from voteweight.harness import Trace


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "rule": {"kind": "deterministic_positional", "scores": "plurality"},
        "scheme": {"kind": "constant"},
        "n": 4,
        "m": 3,
        "T": 50,
        "feedback": "full",
        "source": {"kind": "thm3"},
        "seed": 0,
        "trials": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def reference_trace_csv(path, trace):
    """The trace CSV as ``csv.writer`` writes it, one field at a time."""
    cumulative_scheme = np.cumsum(trace.scheme_loss)
    best = np.cumsum(trace.per_voter_loss, axis=0).min(axis=1)
    columns = (trace.scheme_loss, cumulative_scheme, best, cumulative_scheme - best)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "scheme_expected_loss", "cumulative_scheme_loss",
                         "best_voter_cumulative_loss_so_far", "cumulative_regret"])
        for t, values in enumerate(zip(*(c.tolist() for c in columns)), 1):
            writer.writerow([t, *(f"{x:.12g}" for x in values)])


class TestSimulate:
    def test_thm3_regret_floor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=1000)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["final_regret"] >= 250  # T/n with n=4

    def test_zero_regret_constant_rule(self, tmp_path):
        cfg = write_config(
            tmp_path,
            rule={"kind": "constant_uniform"},
            source={"kind": "iid_random"},
            T=200,
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["final_regret"] == 0.0

    def test_csv_columns_are_consistent(self, tmp_path):
        cfg = write_config(
            tmp_path,
            scheme={"kind": "full_info"},
            rule={"kind": "randomized_positional", "scores": "borda"},
            source={"kind": "iid_random"},
            T=100,
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) == 100
        for row in rows:
            lhs = float(row["cumulative_regret"])
            rhs = float(row["cumulative_scheme_loss"]) - float(
                row["best_voter_cumulative_loss_so_far"]
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_trace_csv_bytes_match_csv_writer(self, tmp_path):
        scheme_loss = np.array([-0.0, 1e-300, 1 / 3, 1e17, 1e-5, 0.1])
        per_voter = np.array([[-0.0, 0.0], [1e-300, 0.5], [0.25, 1 / 7],
                              [2 / 3, 1e17], [0.0, 1e-5], [0.3, 0.2]])
        T, n = per_voter.shape
        trace = Trace(per_voter, np.full((T, n), 1 / n), np.zeros(T, dtype=int),
                      np.zeros(T, dtype=int), scheme_loss, scheme_loss)
        cli._write_trace_csv(tmp_path / "fast.csv", trace)
        reference_trace_csv(tmp_path / "reference.csv", trace)
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b"\r\n1,-0,-0," in written and b",1e-300," in written and b",1e+17," in written

    def test_byte_identical_replay(self, tmp_path):
        cfg = write_config(
            tmp_path,
            scheme={"kind": "partial_info"},
            rule={"kind": "randomized_positional", "scores": "borda"},
            source={"kind": "iid_random"},
            feedback="partial",
            T=200,
            seed=11,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_missing_sequence_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, source={"kind": "file", "path": str(tmp_path / "nope.jsonl")}
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unreadable_sequence_file(self, tmp_path, capsys):
        folder = tmp_path / "rounds.jsonl"
        folder.mkdir()
        cfg = write_config(tmp_path, source={"kind": "file", "path": str(folder)})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text", [
        pytest.param(b'{"n": 1' + b"0" * 5000 + b"}", id="integer_past_the_digit_limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no integer digit limit")),
        pytest.param(b"\xff\xfe{}", id="not_utf8"),
        pytest.param(b'{"n": ' + b"[" * 100000 + b"]" * 100000 + b"}", id="nested_too_deep"),
    ])
    def test_unparsable_config_writes_nothing(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")

    def test_incompatible_pairing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scheme={"kind": "full_info"},
            source={"kind": "iid_random"},
            feedback="partial",
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_file_source_round_trip(self, tmp_path):
        seq = tmp_path / "rounds.jsonl"
        with open(seq, "w") as fh:
            for _ in range(10):
                fh.write(
                    json.dumps(
                        {"rankings": [[0, 1, 2]] * 4, "losses": [0.0, 0.5, 1.0]}
                    )
                    + "\n"
                )
        cfg = write_config(
            tmp_path,
            rule={"kind": "randomized_copeland"},
            source={"kind": "file", "path": str(seq)},
            T=10,
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "trace.csv")) == 10


    def test_source_built_once(self, tmp_path, monkeypatch):
        seq = tmp_path / "rounds.jsonl"
        seq.write_text(
            json.dumps({"rankings": [[0, 1, 2]] * 4, "losses": [0.0, 0.5, 1.0]}) + "\n"
        )
        built = []

        class CountingFileSource(cli.FileSource):
            def __init__(self, path):
                built.append(path)
                super().__init__(path)

        monkeypatch.setattr(cli, "FileSource", CountingFileSource)
        cfg = write_config(
            tmp_path,
            rule={"kind": "randomized_positional", "scores": "borda"},
            source={"kind": "file", "path": str(seq)},
            T=1,
            trials=3,
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_regret_bound_follows_scheme_kind(self, tmp_path):
        cfg = write_config(
            tmp_path,
            scheme={"kind": "partial_info"},
            rule={"kind": "randomized_positional", "scores": "borda"},
            source={"kind": "iid_random"},
            T=200,
        )
        cfg_obj = json.loads(cfg.read_text())
        del cfg_obj["feedback"]
        cfg.write_text(json.dumps(cfg_obj))
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["regret_bound"] == pytest.approx(
            math.sqrt(2 * 200 * 4 * math.log(4)), rel=1e-9
        )

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"m": 1, "rule": {"kind": "randomized_copeland"},
                      "source": {"kind": "iid_random"}, "scheme": {"kind": "full_info"}},
                     "need 2 <= m <= 20 alternatives, got 1", id="m_1"),
        pytest.param({"m": 21, "source": {"kind": "iid_random"}},
                     "need 2 <= m <= 20 alternatives, got 21", id="m_21"),
        pytest.param({"scheme": {"kind": "partial_info"}, "feedback": "full",
                      "rule": {"kind": "randomized_positional", "scores": "borda"},
                      "source": {"kind": "iid_random"}},
                     "scheme kind 'partial_info' takes 'partial' feedback, not 'full'",
                     id="partial_info_full_feedback"),
        pytest.param({"scheme": {"kind": "constant"}, "feedback": "partial"},
                     "scheme kind 'constant' takes 'full' feedback, not 'partial'",
                     id="constant_partial_feedback"),
        pytest.param({"scheme": {"kind": "constant", "eta": 123.0}},
                     "scheme kind 'constant' takes no eta, got 123.0", id="constant_eta"),
        pytest.param({"feedback": "bandit"}, "takes 'full' feedback, not 'bandit'",
                     id="unknown_feedback"),
        pytest.param({"scheme": {"kind": "full_info", "eta": float("nan")}},
                     "eta must be > 0 with eta * horizon * n finite, got nan", id="nan_eta"),
        pytest.param({"scheme": {"kind": "full_info", "eta": "0.5"}},
                     "eta must be > 0 with eta * horizon * n finite, got '0.5'", id="eta_string"),
        pytest.param({"scheme": {"kind": "full_info", "eta": True}},
                     "eta must be > 0 with eta * horizon * n finite, got True", id="eta_bool"),
        pytest.param({"note": float("nan")}, "unknown key 'note' in config",
                     id="nan_under_an_unknown_key"),
        pytest.param({"trials": 0}, "trials must be at least 1, got 0", id="zero_trials"),
        pytest.param({"trials": 1e308}, f"trials must be at most {sys.maxsize}, got 1000",
                     id="float_trials_past_maxsize"),
        pytest.param({"trials": 10**400}, f"trials must be at most {sys.maxsize}, got 1000",
                     id="int_trials_past_maxsize"),
        pytest.param({"source": "iid_random"}, "source must be an object, got 'iid_random'",
                     id="source_not_an_object"),
        pytest.param({"source": {"kind": "thm5", "delta": 0}},
                     "delta is a selection gap in (0, 1], got 0", id="thm5_zero_delta"),
        pytest.param({"source": {"kind": "thm5", "delta": 2.0},
                      "rule": {"kind": "randomized_copeland"},
                      "scheme": {"kind": "deterministic_unilateral"}, "n": 11, "T": 3},
                     "delta is a selection gap in (0, 1], got 2.0", id="thm5_delta_over_one"),
        pytest.param({"source": {"kind": "thm5", "delta": "0.5"},
                      "rule": {"kind": "randomized_copeland"},
                      "scheme": {"kind": "deterministic_unilateral"}, "n": 11, "T": 3},
                     "delta is a selection gap in (0, 1], got '0.5'", id="thm5_string_delta"),
        pytest.param({"source": {"kind": "thm5", "delta": 0.5},
                      "rule": {"kind": "constant_uniform"}, "n": 11, "T": 10},
                     "the Condorcet winner 0 leads by 0, under delta=0.5",
                     id="thm5_delta_past_the_rules_gap"),
        pytest.param({"rule": {"kind": "deterministic_positional", "scores": "condorcet"}},
                     "unknown score family 'condorcet'", id="unknown_score_family"),
        pytest.param({"rule": {"kind": "randomized_positional", "scores": [[2, 1, 0]]}},
                     "scores must be a non-empty list of numbers, got [[2, 1, 0]]",
                     id="two_d_scores"),
        pytest.param({"rule": {"kind": "randomized_positional", "scores": [True, False, False]}},
                     "scores must be a non-empty list of numbers, got [True, False, False]",
                     id="bool_scores"),
        pytest.param({"rule": {"kind": "randomized_positional", "scores": {"a": 1}}},
                     "scores must be a non-empty list of numbers, got {'a': 1}",
                     id="object_scores"),
        pytest.param({"rule": {"kind": "randomized_positional", "scores": ["a", "b", "c"]}},
                     "scores must be a non-empty list of numbers, got ['a', 'b', 'c']",
                     id="string_scores"),
        pytest.param({"scheme": {"kind": "full_info", "eta": 1e308}},
                     "eta must be > 0 with eta * horizon * n finite, got 1e+308",
                     id="eta_overflows_softmax"),
        pytest.param({"scheme": {"kind": "full_info", "eta": 10**400}},
                     "eta must be > 0 with eta * horizon * n finite, got 1000",
                     id="eta_past_float_range"),
        pytest.param({"T": float("inf")}, "T must be a non-negative whole number, got inf",
                     id="infinite_T"),
        pytest.param({"T": 2.7}, "T must be a non-negative whole number, got 2.7",
                     id="fractional_T"),
        pytest.param({"n": True}, "n must be a non-negative whole number, got True", id="bool_n"),
        pytest.param({"m": 3.5}, "m must be a non-negative whole number, got 3.5",
                     id="fractional_m"),
        pytest.param({"seed": float("nan")}, "seed must be a non-negative whole number, got nan",
                     id="nan_seed"),
        pytest.param({"trials": True}, "trials must be a non-negative whole number, got True",
                     id="bool_trials"),
        pytest.param({"T": "7"}, "T must be a non-negative whole number, got '7'", id="string_T"),
        pytest.param({"n": "4"}, "n must be a non-negative whole number, got '4'", id="string_n"),
        pytest.param({"m": "3"}, "m must be a non-negative whole number, got '3'", id="string_m"),
        pytest.param({"seed": "0"}, "seed must be a non-negative whole number, got '0'",
                     id="string_seed"),
        pytest.param({"trials": "1"}, "trials must be a non-negative whole number, got '1'",
                     id="string_trials"),
        pytest.param({"seed": -1}, "seed must be a non-negative whole number, got -1",
                     id="negative_seed"),
        pytest.param({"trace_csv": 5}, "trace_csv must be a non-empty path, got 5",
                     id="trace_csv_int"),
        pytest.param({"summary_json": 5}, "summary_json must be a non-empty path, got 5",
                     id="summary_json_int"),
        pytest.param({"out_dir": 5}, "out_dir must be a non-empty path, got 5", id="out_dir_int"),
        pytest.param({"trace_csv": "out.txt", "summary_json": "out.txt"},
                     "trace_csv 'out.txt' and summary_json 'out.txt' name the same file",
                     id="same_output_file"),
        pytest.param({"trace_csv": "./out.txt", "summary_json": "out.txt"},
                     "trace_csv './out.txt' and summary_json 'out.txt' name the same file",
                     id="same_output_file_spelled_apart"),
        pytest.param({"trace_csv": "<tmp>/out/out.txt", "summary_json": "out.txt"},
                     "trace_csv '<tmp>/out/out.txt' and summary_json 'out.txt' name the same file",
                     id="same_output_file_as_an_absolute_path"),
        pytest.param({"summary_json": "<tmp>/link.json"},
                     "trace_csv 'trace.csv' and summary_json '<tmp>/link.json' name the same file",
                     id="same_output_file_through_a_symlink"),
    ])
    def test_invalid_config_writes_nothing(self, tmp_path, capsys, overrides, message):
        # <tmp> is tmp_path, where link.json links to the trace's path, out/trace.csv
        out = tmp_path / "out"
        os.symlink(out / "trace.csv", tmp_path / "link.json")
        overrides = {key: value.replace("<tmp>", str(tmp_path)) if isinstance(value, str)
                     else value for key, value in overrides.items()}
        cfg = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.replace("<tmp>", str(tmp_path)) in err

    def test_hard_linked_outputs_refused_before_any_episode(self, tmp_path, capsys, monkeypatch):
        # one inode under both names: their realpaths differ, so only samefile sees it
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_bytes(b"round\r\n1\r\n")
        os.link(out / "trace.csv", out / "summary.json")
        monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: pytest.fail("ran"))
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert (out / "trace.csv").read_bytes() == b"round\r\n1\r\n"
        assert capsys.readouterr().err == ("error: trace_csv 'trace.csv' and summary_json "
                                           "'summary.json' name the same file\n")
        os.unlink(out / "summary.json")  # two files that both exist are overwritten
        (out / "summary.json").write_text("{}")
        monkeypatch.undo()
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len(read_rows(out / "trace.csv")) == 50
        assert json.loads((out / "summary.json").read_text())["trials"] == 1

    def test_nan_summary_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # summary.json is strict JSON: a NaN regret is refused, not written as NaN
        monkeypatch.setattr(cli, "regret", lambda trace: math.nan)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert "Out of range float values" in capsys.readouterr().err

    def test_a_fault_inside_an_episode_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("x")

        monkeypatch.setattr(cli, "run_episode", broken)
        with pytest.raises(KeyError, match="x"):
            main(["simulate", "--config", str(write_config(tmp_path)),
                  "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("rule, message", [
        ({"kind": "unilateral", "position": 5}, "position=5 needs m > 5"),
        ({"kind": "duple", "a": 0, "b": 7}, "b=7 needs m > 7"),
        ({"kind": "duple", "a": 1.9, "b": 0}, "a must be a non-negative whole number"),
        ({"kind": "unilateral", "position": -1}, "position must be a non-negative whole"),
        ({"kind": "duple", "a": -1, "b": 0}, "a must be a non-negative whole number"),
        ({"kind": "duple", "a": "1", "b": 0}, "a must be a non-negative whole number"),
    ], ids=["position_past_m", "duple_b_past_m", "fractional_a", "negative_position",
            "negative_a", "string_a"])
    @pytest.mark.parametrize("kind", ["full_info", "deterministic_unilateral"])
    def test_bad_rule_index_writes_nothing(self, tmp_path, capsys, rule, message, kind):
        cfg = write_config(tmp_path, rule=rule, source={"kind": "iid_random"},
                           scheme={"kind": kind})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("bad", [
        {"rankings": [[0, 1, 2]] * 4, "losses": [float("nan"), 0.5, 1.0]},
        {"rankings": [[1.5, 0, 2]] + [[0, 1, 2]] * 3, "losses": [0.0, 0.5, 1.0]},
        {"rankings": [[True, False, 2]] + [[0, 1, 2]] * 3, "losses": [0.0, 0.5, 1.0]},
        {"rankings": [[0, 1, 2]] * 4, "losses": [10**400, 0.5, 1.0]},
        {"rankings": [[0, 1, 2]] * 4, "losses": [True, 0.5, False]},
    ], ids=["nan_loss", "float_rank_id", "bool_rank_id", "loss_past_float_range", "bool_loss"])
    def test_bad_file_line_is_named_and_writes_nothing(self, tmp_path, capsys, bad):
        seq = tmp_path / "rounds.jsonl"
        good = {"rankings": [[0, 1, 2]] * 4, "losses": [0.0, 0.5, 1.0]}
        seq.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        cfg = write_config(
            tmp_path,
            rule={"kind": "randomized_copeland"},
            source={"kind": "file", "path": str(seq)},
            T=2,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert f"{seq}:2: bad round: " in capsys.readouterr().err

    @pytest.mark.parametrize("scores", [[1e308, 1e308, 0], [1, math.nan, 0], [math.inf, 1, 0]],
                             ids=["sum_overflows", "nan", "infinity"])
    def test_non_finite_scores_write_nothing(self, tmp_path, capsys, scores):
        cfg = write_config(tmp_path, rule={"kind": "randomized_positional", "scores": scores},
                           scheme={"kind": "full_info"}, source={"kind": "iid_random"}, T=5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: scores must be finite with a finite sum")

    def test_config_out_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys):
        # without --out-dir, the config's own out_dir is the destination
        cfg = write_config(tmp_path, out_dir=5)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert capsys.readouterr().err.startswith("error: out_dir must be")

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_out_dir_on_a_regular_file_is_an_error(self, tmp_path, monkeypatch, capsys, out_dir):
        # the run is valid; only its destination cannot be made a directory
        cfg = write_config(tmp_path, out_dir=out_dir)
        (tmp_path / "afile").write_text("kept\n")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_output_in_a_new_subdirectory_is_written(self, tmp_path):
        cfg = write_config(tmp_path, summary_json="missing/summary.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "trace.csv").is_file()
        assert json.loads((out / "missing" / "summary.json").read_text())["trials"] == 1

    def test_output_on_a_directory_writes_no_trace(self, tmp_path, capsys):
        # checked before the first write, so no trace.csv is left behind
        cfg = write_config(tmp_path, summary_json=".")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not (out / "trace.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the outputs") and "is a directory" in err

    def test_file_line_with_one_alternative_writes_nothing(self, tmp_path):
        seq = tmp_path / "rounds.jsonl"
        lines = [{"rankings": [[0, 1]] * 4, "losses": [0.5, 0.5]},
                 {"rankings": [[0]] * 4, "losses": [0.5]}]
        seq.write_text("".join(json.dumps(line) + "\n" for line in lines))
        cfg = write_config(
            tmp_path,
            rule={"kind": "randomized_copeland"},
            source={"kind": "file", "path": str(seq)},
            T=2,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_file_source_refuses_another_m(self, tmp_path, capsys, m):
        # the widest of the file's 3- and 4-alternative rounds fixes m at 4
        seq = tmp_path / "rounds.jsonl"
        lines = [{"rankings": [[0, 1, 2]] * 4, "losses": [0.0, 0.5, 1.0]},
                 {"rankings": [[3, 0, 1, 2]] * 4, "losses": [0.2, 0.4, 0.6, 0.8]}]
        seq.write_text("".join(json.dumps(line) + "\n" for line in lines))
        cfg = write_config(tmp_path, rule={"kind": "randomized_copeland"},
                           source={"kind": "file", "path": str(seq)}, m=m, T=2)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: m={m}, but") and "at most 4 alternatives" in err
        cfg = write_config(tmp_path, rule={"kind": "randomized_copeland"},
                           source={"kind": "file", "path": str(seq)}, m=4, T=2)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0


def simulate_writes_nothing(tmp_path, capsys, config_text):
    """Run simulate on ``config_text``; assert exit 1 with no output and return stderr."""
    path = tmp_path / "config.json"
    path.write_text(config_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


RULE_KINDS = {
    "deterministic_positional": {"scores": "borda"},
    "randomized_positional": {"scores": [2, 1, 0]},
    "deterministic_copeland": {},
    "randomized_copeland": {},
    "constant_uniform": {},
    "duple": {"a": 0, "b": 1},
    "unilateral": {"position": 0},
}


class TestConfigGrammar:
    """Every section of a simulate config is closed: a key it does not take, a
    key it needs but lacks, a key given twice or a section that is not an object
    exits 1 before any output, with an error naming the key and its section."""

    def test_valid_config_of_every_rule_kind_runs(self, tmp_path):
        for kind, keys in RULE_KINDS.items():
            cfg = write_config(tmp_path, rule={"kind": kind, **keys},
                               source={"kind": "iid_random"}, T=5)
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("overrides, key, section", [
        ({"trails": 50}, "trails", "config"),
        ({"scheme": {"kind": "full_info", "Eta": 5}}, "Eta", "scheme"),
        ({"scheme": {"kind": "constant", "feedback": "full"}}, "feedback", "scheme"),
    ], ids=["top_level", "scheme", "scheme_takes_no_feedback"])
    def test_unknown_key_is_named(self, tmp_path, capsys, overrides, key, section):
        cfg = write_config(tmp_path, **overrides)
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"unknown key {key!r} in {section}" in err

    @pytest.mark.parametrize("kind", RULE_KINDS)
    def test_foreign_key_of_each_rule_kind_is_named(self, tmp_path, capsys, kind):
        foreign = "position" if kind == "duple" else "a"
        cfg = write_config(tmp_path, rule={"kind": kind, **RULE_KINDS[kind], foreign: 1},
                           scheme={"kind": "full_info"}, source={"kind": "iid_random"})
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"unknown key {foreign!r} in rule {kind!r}" in err

    @pytest.mark.parametrize("source, foreign", [
        ({"kind": "thm3", "delta": 0.5}, "delta"),
        ({"kind": "thm5", "path": "rounds.jsonl"}, "path"),
        ({"kind": "iid_random", "delta": 0.5}, "delta"),
        ({"kind": "file", "path": "rounds.jsonl", "delta": 0.5}, "delta"),
    ], ids=["thm3", "thm5", "iid_random", "file"])
    def test_foreign_key_of_each_source_kind_is_named(self, tmp_path, capsys, source, foreign):
        seq = tmp_path / "rounds.jsonl"
        seq.write_text(json.dumps({"rankings": [[0, 1, 2]] * 11, "losses": [0.0, 0.5, 1.0]}) + "\n")
        source = dict(source, path=str(seq)) if "path" in source else source
        deterministic = source["kind"] == "thm3"
        rule = {"kind": "deterministic_copeland" if deterministic else "randomized_copeland"}
        cfg = write_config(tmp_path, rule=rule, source=source, n=11, T=1)
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"unknown key {foreign!r} in source {source['kind']!r}" in err

    @pytest.mark.parametrize("overrides, key, section", [
        ({"rule": {"kind": "duple", "a": 0}}, "b", "rule 'duple'"),
        ({"rule": {"kind": "unilateral"}}, "position", "rule 'unilateral'"),
        ({"source": {"kind": "file"}}, "path", "source 'file'"),
    ], ids=["duple_b", "unilateral_position", "file_path"])
    def test_missing_key_is_named(self, tmp_path, capsys, overrides, key, section):
        cfg = write_config(tmp_path, **overrides)
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"missing key {key!r} in {section}" in err

    def test_missing_top_level_key_is_named(self, tmp_path, capsys):
        cfg = json.loads(write_config(tmp_path).read_text())
        del cfg["T"]
        err = simulate_writes_nothing(tmp_path, capsys, json.dumps(cfg))
        assert "missing key 'T' in config" in err

    @pytest.mark.parametrize("replaced, text, key, section", [
        ("scheme", '"scheme": {"kind": "partial_info"}, "scheme": {"kind": "full_info"}',
         "scheme", "config"),
        ("scheme", '"scheme": {"kind": "full_info", "eta": 0.1, "eta": 0.2}', "eta", "scheme"),
        ("rule", '"rule": {"kind": "duple", "a": 0, "b": 1, "a": 2}', "a", "rule"),
    ], ids=["top_level", "scheme", "rule"])
    def test_duplicate_key_is_named(self, tmp_path, capsys, replaced, text, key, section):
        # json.load alone would keep the last value and run
        cfg = json.loads(write_config(tmp_path, source={"kind": "iid_random"}).read_text())
        del cfg[replaced]
        err = simulate_writes_nothing(tmp_path, capsys, "{" + text + ", " + json.dumps(cfg)[1:])
        assert f"key {key!r} given twice in {section}" in err

    @pytest.mark.parametrize("section, value", [
        ("rule", "randomized_copeland"), ("scheme", "full_info"), ("source", ["iid_random"]),
        ("scheme", None),
    ], ids=["rule_string", "scheme_string", "source_list", "scheme_null"])
    def test_section_that_is_not_an_object_is_named(self, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path, **{section: value})
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"{section} must be an object" in err

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        err = simulate_writes_nothing(tmp_path, capsys, "[1, 2]")
        assert "config must be an object" in err

    @pytest.mark.parametrize("section, kind", [("rule", "schulze"), ("source", "thm4"),
                                               ("rule", ["duple"]), ("source", None)],
                             ids=["unknown_rule", "unknown_source", "list_rule", "null_source"])
    def test_kind_outside_the_table_is_named(self, tmp_path, capsys, section, kind):
        cfg = write_config(tmp_path, **{section: {"kind": kind}})
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert f"{section} kind must be one of " in err

    def test_zero_trials_runs_no_episode(self, tmp_path, capsys, monkeypatch):
        episodes = []
        monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: episodes.append(args))
        cfg = write_config(tmp_path, trials=0, T=20000)
        err = simulate_writes_nothing(tmp_path, capsys, cfg.read_text())
        assert "trials must be at least 1" in err and episodes == []


def run_fresh(*args):
    """Python with `args` in a fresh interpreter that imports this voteweight."""
    src = os.path.dirname(os.path.dirname(voteweight.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


class TestFreshProcess:
    def test_non_decomposing_warning_is_one_plain_line(self, tmp_path):
        cfg = write_config(tmp_path, rule={"kind": "randomized_copeland"},
                           scheme={"kind": "deterministic_unilateral"}, source={"kind": "thm5"},
                           n=11, T=20, trials=3)
        done = run_fresh("-m", "voteweight.cli", "simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        warned = [line for line in done.stderr.splitlines()
                  if line.startswith("warning: deterministic weights")]
        assert len(warned) == 1  # one line for the run, not one per trial
        assert "UserWarning" not in done.stderr and "cli.py" not in done.stderr

    def test_cli_import_leaves_the_checks_unloaded(self):
        # simulate never runs a check; verify imports them when it runs
        code = "import sys, voteweight.cli; print('voteweight.checks' in sys.modules)"
        done = run_fresh("-c", code)
        assert done.stdout.splitlines()[-1] == "False", done.stderr

    def test_simulate_leaves_numpy_ma_unimported(self, tmp_path):
        # a plain np.unique imports numpy.ma, ~10 ms of every run's setup
        seq = tmp_path / "rounds.jsonl"
        lines = [{"rankings": [[0, 1, 2], [2, 1, 0], [1, 0, 2], [0, 2, 1]],
                  "losses": [0.1, 0.5, 0.9]},
                 {"rankings": [[3, 0, 1, 2]] * 4, "losses": [0.2, 0.4, 0.6, 0.8]}] * 3
        seq.write_text("".join(json.dumps(line) + "\n" for line in lines))
        borda = {"kind": "randomized_positional", "scores": "borda"}
        configs = [
            write_config(tmp_path, name="iid.json", rule=borda, scheme={"kind": "full_info"},
                         source={"kind": "iid_random"}, T=20, trials=2),
            write_config(tmp_path, name="file.json", rule=borda, m=4, T=6,
                         scheme={"kind": "deterministic_unilateral"},
                         source={"kind": "file", "path": str(seq)}),
        ]
        code = ("import sys; from voteweight.cli import main; "
                "codes = [main(['simulate', '--config', c, '--out-dir', c + '.out']) "
                "for c in sys.argv[1:]]; print(codes, 'numpy.ma' in sys.modules)")
        done = run_fresh("-c", code, *map(str, configs))
        assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        assert main(["verify", "--suite", "identities", "--profiles", "30"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_estimators_suite_passes(self, capsys):
        assert main(["verify", "--suite", "estimators"]) == 0
        out = capsys.readouterr().out
        assert "estimator_error_path" in out

    def test_adversaries_suite_passes(self, capsys):
        assert main(["verify", "--suite", "adversaries", "--profiles", "50"]) == 0
        out = capsys.readouterr().out
        assert "condorcet_split_gap" in out

    @pytest.mark.parametrize("profiles", [0, -3])
    def test_run_suite_refuses_no_profiles(self, profiles):
        # a condorcet_gap check over no profiles would report PASS on nothing
        with pytest.raises(ValueError, match="profiles"):
            run_suite("identities", profiles=profiles)
        with pytest.raises(ValueError, match="profiles"):
            run_suite("estimators", profiles=profiles)

    @pytest.mark.parametrize("profiles", ["0", "-3"])
    def test_no_profiles_is_a_usage_error(self, capsys, profiles):
        # checks over no profiles would pass on nothing
        assert main(["verify", "--suite", "all", "--profiles", profiles]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--profiles" in captured.err

    def test_run_suite_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative whole number, got -1"):
            run_suite("identities", seed=-1)

    def test_negative_seed_is_a_usage_error(self, capsys):
        # numpy's own message for a negative seed names no option
        assert main(["verify", "--suite", "identities", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--seed -1" in captured.err
        assert "seed must be a non-negative whole number, got -1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "bogus"], ["verify", "--suite", "all", "--seed", "x"],
        ["simulate"], ["bogus"],
    ], ids=["unknown_suite", "non_integer_seed", "simulate_without_config", "unknown_command"])
    def test_usage_error_exits_1_with_its_usage_line(self, capsys, argv):
        # 2 is a failed check; a script must tell a typo from it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: voteweight") and "error: " in captured.err

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        failing = checks.CheckResult("majority_prefix_bound", False, "worst slack -1")
        monkeypatch.setattr(checks, "check_prefix_bound", lambda seed, profiles: failing)
        assert main(["verify", "--suite", "adversaries", "--profiles", "5"]) == 2
        captured = capsys.readouterr()
        assert "FAIL majority_prefix_bound: worst slack -1" in captured.out
        assert captured.err == "1 of 3 checks failed\n"

    def test_a_checks_own_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def faulty(seed, profiles):
            raise ValueError("a fault inside the check")

        monkeypatch.setattr(checks, "check_prefix_bound", faulty)
        with pytest.raises(ValueError, match="a fault inside the check"):
            main(["verify", "--suite", "adversaries", "--profiles", "5"])
        assert "error: verify" not in capsys.readouterr().err

    def test_run_suite_refuses_an_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            run_suite("bogus")
