import shutil

import pytest

from netrecon import train
from netrecon.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_EMPTY_RECONSTRUCTION,
    EXIT_OK,
    REPORT_COLUMNS,
    main,
)
from netrecon.data import make_synthetic_classification, save_idx

CONFIG = """
[run]
seed = 0
output_dir = {out}

[teacher]
train_images = {root}/train_images.idx
train_labels = {root}/train_labels.idx
hidden = 2
learning_rate = 0.01
batch_size = 64
max_steps = 800
eval_every = 50
plateau_threshold = 0.001

[query]
strategy = biased_noise
base_subset = 400
magnitude = 1.0

[students]
n = 3
rho = 4
learning_rate = 0.02
batch_size = 256
max_steps = 6000
eval_every = 500
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-8
target_loss = 1e-9

[reconstruct]
gamma = 0.6
beta = 3.0
learning_rate = 0.003
batch_size = 1024
max_steps = 3000
eval_every = 250
plateau_patience = 6
plateau_factor = 0.3
plateau_threshold = 0.001
plateau_min_lr = 1e-10
target_loss = 1e-12

[eval]
ood = {root}/ood_images.idx, {root}/ood_labels.idx
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = make_synthetic_classification(600, height=4, width=4, n_classes=5, seed=0)
    save_idx(train, str(root / "train_images.idx"), str(root / "train_labels.idx"))
    ood = make_synthetic_classification(200, height=4, width=4, n_classes=5,
                                        style="stripes", seed=9)
    save_idx(ood, str(root / "ood_images.idx"), str(root / "ood_labels.idx"))
    config = root / "run.ini"
    config.write_text(CONFIG.format(root=root, out=root / "out"))
    return root


def run(workdir, command, out, *extra):
    return main([command, "--config", str(workdir / "run.ini"),
                 "--out", str(out), *extra])


class TestStages:
    def test_stage_by_stage(self, workdir):
        out = workdir / "stages"
        assert run(workdir, "train-teacher", out) == EXIT_OK
        assert (out / "teacher.mlp").is_file()
        history = (out / "teacher_history.csv").read_text().splitlines()
        assert history[0] == "step,loss,lr"

        assert run(workdir, "build-queries", out) == EXIT_OK
        assert (out / "queries.qs").is_file()

        assert run(workdir, "train-students", out) == EXIT_OK
        for i in range(3):
            assert (out / "students" / f"student_{i:02d}.mlp").is_file()
        losses = (out / "students" / "losses.csv").read_text().splitlines()
        assert losses[0] == "step,loss,lr,student_index"
        summary = (out / "students" / "ensemble_summary.csv").read_text().splitlines()
        assert summary[0] == "student_index,final_loss,steps,status"
        assert len(summary) == 4
        scatter = (out / "losses.csv").read_text().splitlines()
        assert scatter[0] == "student,dataset,Q,loss"
        assert len(scatter) == 1 + 3 * 2  # 3 students x (train + ood)

        assert run(workdir, "reconstruct", out) == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == REPORT_COLUMNS
        assert report[0] == "method,r,N,m/r,avg_dw,max_dw,avg_da,max_da,Q"
        assert (out / "reconstructed.mlp").is_file()
        assert (out / "report.txt").is_file()

    def test_build_queries_logs_cardinality(self, workdir, capsys):
        out = workdir / "stages"
        run(workdir, "build-queries", out)
        captured = capsys.readouterr().out
        assert "Q=1200" in captured  # 3 x 400 for biased noise
        assert "biased_noise" in captured

    def test_teacher_rerun_identical(self, workdir):
        out_a, out_b = workdir / "det_a", workdir / "det_b"
        run(workdir, "train-teacher", out_a)
        run(workdir, "train-teacher", out_b)
        assert (out_a / "teacher.mlp").read_bytes() == (out_b / "teacher.mlp").read_bytes()

    def test_resume_skips_existing_students(self, workdir):
        out = workdir / "stages"
        target = out / "students" / "student_01.mlp"
        before = target.read_bytes()
        target.unlink()
        marker = out / "students" / "student_00.mlp"
        marker_stat = marker.stat().st_mtime_ns
        assert run(workdir, "train-students", out, "--resume") == EXIT_OK
        assert marker.stat().st_mtime_ns == marker_stat  # untouched
        assert target.read_bytes() == before


class TestStudentFiles:
    @pytest.fixture(scope="class")
    def queries(self, workdir):
        """An output directory holding a teacher and its query set."""
        out = workdir / "queries"
        assert run(workdir, "train-teacher", out) == EXIT_OK
        assert run(workdir, "build-queries", out) == EXIT_OK
        return out

    @staticmethod
    def copy_queries(queries, out):
        out.mkdir()
        for name in ("teacher.mlp", "queries.qs"):
            shutil.copy(queries / name, out / name)

    def test_students_saved_as_they_finish(self, workdir, queries, monkeypatch):
        out = workdir / "interrupted"
        self.copy_queries(queries, out)
        real = train.train_student
        calls = []

        def interrupt_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(train, "train_student", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run(workdir, "train-students", out)
        assert (out / "students" / "student_00.mlp").is_file()
        assert (out / "students" / "student_01.mlp").is_file()
        assert not (out / "students" / "student_02.mlp").exists()

    def test_diverged_student_leaves_no_model_file(self, workdir, queries):
        out = workdir / "diverged"
        self.copy_queries(queries, out)
        stale = out / "students" / "student_01.mlp"
        stale.parent.mkdir()
        stale.write_bytes(b"model file of an earlier run")
        config = workdir / "diverge.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "learning_rate = 0.02", "learning_rate = 1e300"))
        code = main(["train-students", "--config", str(config), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert not stale.exists()
        summary = (out / "students" / "ensemble_summary.csv").read_text().splitlines()
        assert summary[2].startswith("1,nan,0,diverged: ")


class TestPipeline:
    def test_runs_end_to_end_and_is_deterministic(self, workdir):
        out_a, out_b = workdir / "pipe_a", workdir / "pipe_b"
        assert run(workdir, "pipeline", out_a) == EXIT_OK
        assert run(workdir, "pipeline", out_b, "--jobs", "2") == EXIT_OK
        for name in ("report.csv", "losses.csv", "teacher.mlp", "queries.qs"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_dataset_fails_before_outputs(self, workdir):
        config = workdir / "missing.ini"
        config.write_text(
            (workdir / "run.ini").read_text().replace("train_images.idx",
                                                      "absent.idx"))
        out = workdir / "never"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_invalid_width_rejected_before_compute(self, workdir):
        config = workdir / "bad.ini"
        config.write_text(
            (workdir / "run.ini").read_text().replace("hidden = 2", "hidden = 0"))
        out = workdir / "never2"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_empty_reconstruction_exit_code(self, workdir):
        # an impossibly tight threshold on undertrained students accepts nothing
        config = workdir / "empty.ini"
        text = (workdir / "run.ini").read_text()
        text = text.replace("gamma = 0.6", "gamma = 1.0")
        text = text.replace("beta = 3.0", "beta = 9.0")
        text = text.replace("max_steps = 6000", "max_steps = 60")
        config.write_text(text)
        out = workdir / "empty_out"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == EXIT_EMPTY_RECONSTRUCTION
        report = (out / "report.csv").read_text().splitlines()
        assert report[1].split(",")[3] == "0.0"  # m/r column

    def test_env_var_sets_output_dir(self, workdir, monkeypatch):
        out = workdir / "env_out"
        monkeypatch.setenv("NETRECON_OUT", str(out))
        assert main(["train-teacher", "--config", str(workdir / "run.ini")]) == EXIT_OK
        assert (out / "teacher.mlp").is_file()

    def test_unreadable_config(self, workdir):
        assert main(["pipeline", "--config", str(workdir / "none.ini")]) == EXIT_CONFIG
