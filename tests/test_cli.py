import shutil
import struct
import zlib

import numpy as np
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
from netrecon.config import load_config
from netrecon.data import make_synthetic_classification, save_idx
from netrecon.errors import DivergenceError
from netrecon.network import Mlp, init_mlp, save_mlp

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
            history = (out / "students" / f"student_{i:02d}.history.csv").read_text()
            assert history.startswith("step,loss,lr\n0,")
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
        tables = [out / "students" / name for name in ("losses.csv", "ensemble_summary.csv")]
        before = [path.read_bytes() for path in [target, *tables]]
        target.unlink()
        marker = out / "students" / "student_00.mlp"
        marker_stat = marker.stat().st_mtime_ns
        assert run(workdir, "train-students", out, "--resume") == EXIT_OK
        assert marker.stat().st_mtime_ns == marker_stat  # untouched
        # the resumed students keep their training record
        assert [path.read_bytes() for path in [target, *tables]] == before


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

    @staticmethod
    def write_students(out, shapes):
        """A finished run's students: one model and history file per (r, d, c) slot."""
        (out / "students").mkdir()
        for i, dims in enumerate(shapes):
            save_mlp(init_mlp(*dims, seed=i), str(out / "students" / f"student_{i:02d}.mlp"))
            (out / "students" / f"student_{i:02d}.history.csv").write_text(
                "step,loss,lr\n0,1.0,0.02\n")

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
        stale_history = out / "students" / "student_01.history.csv"
        stale_history.write_text("step,loss,lr\n0,1.0,0.02\n")
        config = workdir / "diverge.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "learning_rate = 0.02", "learning_rate = 1e300"))
        code = main(["train-students", "--config", str(config), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert not stale.exists() and not stale_history.exists()
        summary = (out / "students" / "ensemble_summary.csv").read_text().splitlines()
        assert summary[2].startswith("1,nan,0,diverged: ")

    def test_losses_csv_numbers_students_by_slot(self, workdir, queries, monkeypatch):
        out = workdir / "first_diverged"
        self.copy_queries(queries, out)
        config = workdir / "short.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "max_steps = 6000", "max_steps = 20"))
        real = train.train_student

        def diverge_first(qs, r_student, cfg):
            if cfg.seed == load_config(str(config)).students.train.seed:
                raise DivergenceError(0)
            return real(qs, r_student, cfg)

        monkeypatch.setattr(train, "train_student", diverge_first)
        code = main(["train-students", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "losses.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"1", "2"}

    def test_eval_set_of_other_image_size_fails_before_training(self, workdir, queries,
                                                                 capsys):
        out = workdir / "eval_size"
        self.copy_queries(queries, out)
        ood = make_synthetic_classification(20, height=5, width=5, n_classes=5,
                                            style="stripes", seed=9)
        save_idx(ood, str(out / "ood5_images.idx"), str(out / "ood5_labels.idx"))
        config = workdir / "eval_size.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            f"{workdir}/ood_", f"{out}/ood5_"))
        code = main(["train-students", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "[eval] ood: 5x5 images, but the teacher takes d=16" in capsys.readouterr().err
        assert not (out / "students" / "student_00.mlp").exists()

    @pytest.mark.parametrize("command", [["reconstruct"], ["train-students", "--resume"]])
    @pytest.mark.parametrize("r,d,c", [(8, 15, 5), (8, 16, 4), (7, 16, 5)])
    def test_student_of_other_shape_is_a_config_error(self, workdir, queries, capsys,
                                                      command, r, d, c):
        # students of this config are r = rho * hidden = 8 wide on 4x4 images, 5 classes
        out = workdir / f"shape_{command[0]}_{r}_{d}_{c}"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5), (r, d, c), (8, 16, 5)])
        assert run(workdir, command[0], out, *command[1:]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"student_01.mlp: student has r={r} d={d} c={c}" in err
        assert "need r=8 d=16 c=5" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_config_error(self, workdir, queries, capsys, jobs):
        out = workdir / f"jobs_{jobs}"
        self.copy_queries(queries, out)
        assert run(workdir, "train-students", out, "--jobs", jobs) == EXIT_CONFIG
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (out / "students").exists()

    def test_non_finite_query_set_is_a_format_error(self, workdir, queries, capsys):
        out = workdir / "nan_target"
        self.copy_queries(queries, out)
        blob = bytearray((out / "queries.qs").read_bytes())
        blob[-12:-4] = struct.pack("<d", float("nan"))  # the last target
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[4:-4])))
        (out / "queries.qs").write_bytes(bytes(blob))
        assert run(workdir, "train-students", out) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "students").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_teacher_with_overflowing_logits_is_a_config_error(self, workdir, capsys):
        out = workdir / "overflow"
        out.mkdir()
        save_mlp(Mlp(W=np.full((2, 16), 1e300), b=np.zeros(2), A=np.full((5, 2), 1e300),
                     c_out=np.zeros(5)), str(out / "teacher.mlp"))
        assert run(workdir, "build-queries", out) == EXIT_CONFIG
        assert "teacher.mlp: inputs and targets must be finite" in capsys.readouterr().err
        assert not (out / "queries.qs").exists()

    def test_resume_without_eval_checks_kept_students(self, workdir, queries, capsys):
        # without [eval] there is no losses.csv pass to load the kept students
        out = workdir / "resume_no_eval"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5), (8, 15, 5), (8, 16, 5)])
        config = workdir / "no_eval.ini"
        text = (workdir / "run.ini").read_text()
        config.write_text(text[:text.index("[eval]")])
        code = main(["train-students", "--config", str(config), "--out", str(out), "--resume"])
        assert code == EXIT_CONFIG
        assert "student_01.mlp: student has r=8 d=15 c=5" in capsys.readouterr().err


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

    def test_adam_beta1_of_one_is_a_config_error(self, workdir):
        # bias correction divides by 1 - beta1**t = 0: not a training divergence
        config = workdir / "beta1.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "[students]\n", "[students]\nadam_beta1 = 1.0\n"))
        out = workdir / "never3"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_truncated_images_file_is_a_format_error(self, workdir, capsys):
        bad = workdir / "truncated"
        bad.mkdir()
        blob = (workdir / "train_images.idx").read_bytes()
        (bad / "train_images.idx").write_bytes(blob[:len(blob) // 2])
        shutil.copy(workdir / "train_labels.idx", bad / "train_labels.idx")
        config = workdir / "truncated.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            f"{workdir}/train_", f"{bad}/train_"))
        code = main(["train-teacher", "--config", str(config), "--out", str(bad / "out")])
        assert code == EXIT_CONFIG
        assert "truncated" in capsys.readouterr().err
        assert not (bad / "out" / "teacher.mlp").exists()

    @pytest.mark.parametrize("old,new", [
        ("hidden = 2", "hidden = 2\nsubset = 5000"),
        ("base_subset = 400", "base_subset = 5000"),
    ])
    def test_subset_larger_than_training_set_is_a_config_error(self, workdir, capsys,
                                                               old, new):
        config = workdir / "subset.ini"
        config.write_text((workdir / "run.ini").read_text().replace(old, new))
        code = main(["pipeline", "--config", str(config), "--out", str(workdir / "big")])
        assert code == EXIT_CONFIG
        assert "subset = 5000 exceeds the 600" in capsys.readouterr().err

    def test_grid_finer_than_image_is_a_config_error(self, workdir, capsys):
        config = workdir / "grid.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "strategy = biased_noise", "strategy = grid\ngrid_x = 9\ngrid_y = 2\ncount = 10"
        ).replace("magnitude = 1.0\n", ""))
        code = main(["pipeline", "--config", str(config), "--out", str(workdir / "grid")])
        assert code == EXIT_CONFIG
        assert "[query] grid_x = 9" in capsys.readouterr().err

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
