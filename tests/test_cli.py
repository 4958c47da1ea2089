import pytest

from pqgrams.cli import _config_from_args, build_parser, run
from pqgrams.datasets import gen_strings, save_tsv
from pqgrams.lmnn import TrainConfig


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


@pytest.mark.parametrize(
    "argv",
    [["train", "--data", "x", "--out", "y"], ["knn-eval", "--data", "x", "--setting", "E2"]],
)
def test_train_flag_defaults_are_train_config_defaults(argv):
    assert _config_from_args(build_parser().parse_args(argv)) == TrainConfig()
