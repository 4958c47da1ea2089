import argparse
import contextlib
import functools
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqgrams import cli
from pqgrams.cli import _config_from_args, build_parser, run
from pqgrams.datasets import gen_strings, load_tsv, save_tsv
from pqgrams.grams import GramShape, extract_grams, multiset_distance
from pqgrams.lmnn import TrainConfig, load_model, train
from pqgrams.tree import serialize_tree

from conftest import random_tree_raw


@pytest.fixture
def strings_tsv(tmp_path):
    path = tmp_path / "strings.tsv"
    save_tsv(gen_strings(10, seed=0), path)
    return str(path)


def test_dist_pq_golden(capsys):
    code = run(["dist", "--algo", "pq", "--t1", "a(b,c)", "--t2", "a(c,b)", "-p", "1", "-q", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"


def test_dist_pq_identical(capsys):
    code = run(["dist", "--algo", "pq", "--t1", "a", "--t2", "a", "-p", "2", "-q", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_dist_pq_prints_the_multiset_distance(monkeypatch):
    # one parser for all 1,800 runs: building it is most of a run's time
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    rng = random.Random(24)
    pairs = [
        tuple(random_tree_raw(rng.randint(1, 15), rng) for _ in range(2)) for _ in range(200)
    ]
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            shape = GramShape(p, q)
            for t1, t2 in pairs:
                argv = ["dist", "--algo", "pq", f"--t1={serialize_tree(t1)}",
                        f"--t2={serialize_tree(t2)}", "-p", str(p), "-q", str(q)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run(argv) == 0
                want = multiset_distance(extract_grams(t1, shape), extract_grams(t2, shape))
                assert out.getvalue() == f"{want}\n"


def test_shape_and_config_are_checked_only_where_used(strings_tsv, capsys):
    assert run(["dist", "--algo", "ted", "--t1", "a(b)", "--t2", "a", "-p", "0"]) == 0
    assert capsys.readouterr().out == "1.000000\n"
    assert run(["dist", "--algo", "pq", "--t1", "a(b)", "--t2", "a", "-p", "0"]) == 2
    argv = ["knn-eval", "--data", strings_tsv, "-k", "1", "--epochs", "-1"]
    assert run(argv + ["--setting", "E1"]) == 0
    assert run(argv + ["--setting", "E2"]) == 2


def test_dist_ted(capsys):
    code = run(["dist", "--algo", "ted", "--t1", "a(b,c)", "--t2", "a(c,b)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2.000000"


def test_grams_prints_five_lines(capsys):
    code = run(["grams", "--tree", "a(b,c)", "-p", "1", "-q", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "a\t*\tb\t1"


def test_usage_errors_exit_1(capsys):
    assert run(["dist", "--algo", "nope", "--t1", "a", "--t2", "b"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["dist", "--algo", "wpq", "--t1", "a", "--t2", "b"]) == 1  # missing --model
    assert run(["dist", "--algo", "ted", "--model", "x", "--t1", "a", "--t2", "b"]) == 1
    assert run(["dist", "--algo", "pq", "--model", "x", "--t1", "a", "--t2", "b"]) == 1


def test_parse_errors_exit_2(capsys):
    assert run(["dist", "--algo", "pq", "--t1", "a(b", "--t2", "b", "-p", "1", "-q", "1"]) == 2
    err = capsys.readouterr().err
    assert "unbalanced" in err


def test_missing_data_file_exits_2(capsys):
    assert run(["train", "--data", "/nonexistent.tsv", "--out", "/tmp/x"]) == 2


@pytest.mark.parametrize("flag", ["mu1", "mu2", "beta", "eta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_config_values(tmp_path, strings_tsv, capsys, flag, value):
    out = tmp_path / "model.txt"
    args = ["train", "--data", strings_tsv, "-k", "1", "--epochs", "2", f"--{flag}={value}"]
    assert run(args + ["--out", str(out)]) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_strings_writes_corpus(tmp_path, capsys):
    out = tmp_path / "s.tsv"
    assert run(["gen-strings", "--n", "5", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("periodic\t")


def test_gen_strings_seed_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    run(["gen-strings", "--n", "7", "--seed", "5", "--out", str(out1)])
    run(["gen-strings", "--n", "7", "--seed", "5", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_train_then_dist_wpq(tmp_path, strings_tsv, capsys):
    model_path = tmp_path / "model.txt"
    code = run(
        ["train", "--data", strings_tsv, "-p", "2", "-q", "2", "-k", "1",
         "--epochs", "5", "--seed", "1", "--out", str(model_path)]
    )
    assert code == 0
    assert model_path.exists()
    capsys.readouterr()

    code = run(["dist", "--algo", "wpq", "--model", str(model_path),
                "--t1", "a(b,c)", "--t2", "a(c,b)"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    float(out)
    assert "." in out and len(out.split(".")[1]) == 6


def test_train_determinism_byte_identical(tmp_path, strings_tsv):
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    args = ["train", "--data", strings_tsv, "-p", "2", "-q", "2", "-k", "1",
            "--epochs", "8", "--seed", "4"]
    assert run(args + ["--out", str(m1)]) == 0
    assert run(args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_knn_eval_writes_csv(tmp_path, strings_tsv, capsys):
    csv_path = tmp_path / "report.csv"
    code = run(
        ["knn-eval", "--data", strings_tsv, "--setting", "E1", "-k", "1",
         "--folds", "5", "--seed", "2", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dataset,setting,fold,error,seconds"
    assert len(lines) == 6
    assert lines[1].startswith("strings,E1,0,")


def test_knn_eval_e2_epochs_zero_matches_e1_errors(tmp_path, strings_tsv, capsys):
    c1, c2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    base = ["--data", strings_tsv, "-k", "1", "--folds", "5", "--seed", "2",
            "--threads", "1"]
    assert run(["knn-eval", *base, "--setting", "E1", "--csv", str(c1)]) == 0
    assert run(["knn-eval", *base, "--setting", "E2", "--epochs", "0",
                "--csv", str(c2)]) == 0

    def errors(path):
        return [line.split(",")[3] for line in path.read_text().splitlines()[1:]]

    assert errors(c1) == errors(c2)


def test_bench_runs_pq_and_ted(strings_tsv, capsys):
    code = run(["bench", "--data", strings_tsv, "--algos", "pq,ted", "-k", "1",
                "--repeats", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pq(p=2,q=2)" in out and "ted" in out


def test_bench_model_goes_with_wpq_only(tmp_path, strings_tsv, capsys):
    model_path = str(tmp_path / "model.txt")
    assert run(["train", "--data", strings_tsv, "-k", "1", "--epochs", "5",
                "--out", model_path]) == 0
    base = ["bench", "--data", strings_tsv, "-k", "1", "--repeats", "1"]
    assert run(base + ["--algos", "wpq"]) == 1
    assert run(base + ["--algos", "pq", "--model", model_path]) == 1
    capsys.readouterr()
    assert run(base + ["--algos", "pq,wpq", "--model", model_path]) == 0
    out = capsys.readouterr().out
    assert "pq(p=2,q=2)" in out and "wpq(p=2,q=2)" in out


def test_knn_eval_rejects_k_below_1(strings_tsv, capsys):
    assert run(["knn-eval", "--data", strings_tsv, "--setting", "E1", "-k", "-1"]) == 2


def test_bench_rejects_unknown_algo(strings_tsv, capsys):
    assert run(["bench", "--data", strings_tsv, "--algos", "pq,magic"]) == 1


@pytest.mark.parametrize("algos", [",", ""])
def test_bench_rejects_algos_that_name_nothing(strings_tsv, capsys, algos):
    assert run(["bench", "--data", strings_tsv, "--algos", algos]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--algos names no algorithm" in err


@pytest.mark.parametrize(
    "argv",
    [["train", "--data", "x", "--out", "y"], ["knn-eval", "--data", "x", "--setting", "E2"]],
)
def test_train_flag_defaults_are_train_config_defaults(argv):
    assert _config_from_args(build_parser().parse_args(argv)) == TrainConfig()


@pytest.mark.parametrize("command", ["dist", "bench"])
def test_wpq_shape_flags_must_match_the_model(tmp_path, strings_tsv, capsys, command):
    model_path = str(tmp_path / "model.txt")
    assert run(["train", "--data", strings_tsv, "-k", "1", "--epochs", "5",
                "--out", model_path]) == 0
    if command == "dist":
        base = ["dist", "--algo", "wpq", "--t1", "a(b,c)", "--t2", "a(c,b)"]
    else:
        base = ["bench", "--data", strings_tsv, "--algos", "pq,wpq", "-k", "1",
                "--repeats", "1"]
    base += ["--model", model_path]
    capsys.readouterr()
    assert run(base + ["-p", "1", "-q", "1"]) == 2
    out, err = capsys.readouterr()
    assert "p=2, q=2" in err and "-p 1 -q 1" in err
    assert "pq(" not in out  # nothing was timed
    assert run(base + ["-p", "2", "-q", "2"]) == 0


def test_python_dash_m_runs_from_a_source_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "pqgrams", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "gen-strings" in out.stdout


@pytest.fixture
def trained_model(tmp_path, strings_tsv):
    path = str(tmp_path / "model.txt")
    assert run(["train", "--data", strings_tsv, "-k", "1", "--epochs", "20",
                "--seed", "3", "--out", path]) == 0
    return path


def _inspect_rows(out):
    """(weight, gram tuple, per-class counts) for each row under the header."""
    rows = []
    for line in out.splitlines()[1:]:
        weight, gram, *counts = line.split()
        rows.append((float(weight), tuple(gram[1:-1].split(",")), [int(c) for c in counts]))
    return rows


def test_inspect_lists_grams_by_effective_weight_with_class_counts(
    tmp_path, trained_model, capsys
):
    # a corpus from another seed has grams the model never saw
    data = tmp_path / "other.tsv"
    corpus = gen_strings(10, seed=1)
    save_tsv(corpus, data)
    model = load_model(trained_model)
    vocab, eff = model.vocab, model.model.effective_weights()
    expected = np.zeros((vocab.dim, len(corpus.label_names)), dtype=np.int64)
    for item in corpus.items:
        for tup, count in extract_grams(item.tree, vocab.shape).items():
            expected[vocab.id_of(tup), item.label] += count
    assert expected[vocab.oov_id].sum() > 0
    capsys.readouterr()

    assert run(["inspect", "--model", trained_model, "--data", str(data),
                "--top", "100000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["weight", "gram", *corpus.label_names]
    rows = _inspect_rows(out)
    ids = [vocab.id_of(gram) for _, gram, _ in rows]
    assert sorted(ids) == list(range(len(vocab)))  # every gram once, never the OOV slot
    assert all(eff[a] >= eff[b] for a, b in zip(ids, ids[1:]))
    for (weight, _, counts), i in zip(rows, ids):
        assert weight == pytest.approx(eff[i], abs=5e-5)
        assert counts == expected[i].tolist()

    assert run(["inspect", "--model", trained_model, "--data", str(data), "--top", "3"]) == 0
    assert _inspect_rows(capsys.readouterr().out) == rows[:3]


def test_inspect_exit_codes(tmp_path, strings_tsv, trained_model, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\n", encoding="utf-8")
    assert run(["inspect", "--model", str(bad), "--data", strings_tsv]) == 2
    assert run(["inspect", "--model", trained_model, "--data", str(bad)]) == 2
    assert run(["inspect", "--model", trained_model, "--data", "/nonexistent.tsv"]) == 2
    assert run(["inspect", "--data", strings_tsv]) == 1
    assert run(["inspect", "--model", trained_model]) == 1
    for top in ("0", "-1"):
        assert run(["inspect", "--model", trained_model, "--data", strings_tsv,
                    "--top", top]) == 1


def test_train_loss_line_marks_quarter_epochs(tmp_path, strings_tsv, capsys):
    for epochs, marks in [(40, [0, 10, 20, 30, 40]), (2, [0, 1, 2]), (0, [0])]:
        argv = ["train", "--data", strings_tsv, "-k", "1", "--epochs", str(epochs),
                "--out", str(tmp_path / "model.txt")]
        assert run(argv) == 0
        (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("loss: ")]
        cfg = _config_from_args(build_parser().parse_args(argv))
        trace = train(load_tsv(strings_tsv).items, GramShape(2, 2), cfg).loss_trace
        assert line == "loss: " + " -> ".join(f"{trace[e]:.6f} (epoch {e})" for e in marks)


def test_docstring_names_every_subcommand():
    (line,) = [s for s in cli.__doc__.splitlines() if s.startswith("Subcommands: ")]
    named = line[len("Subcommands: "):].rstrip(".").split(", ")
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(named) == sorted(sub.choices)
