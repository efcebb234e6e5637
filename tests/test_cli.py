import os
import shutil
import struct
import zlib

import numpy as np
import pytest

from netrecon import cli, train
from netrecon.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_EMPTY_RECONSTRUCTION,
    EXIT_OK,
    REPORT_COLUMNS,
    main,
)
from netrecon._io import container_crc
from netrecon.config import load_config
from netrecon.data import QuerySet, load_queryset, make_synthetic_classification, save_idx
from netrecon.errors import ConfigError, DivergenceError
from netrecon.network import Mlp, init_mlp, load_mlp, save_mlp

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

    def test_reconstruct_reports_the_relative_loss(self, workdir, capsys):
        out = workdir / "stages"
        assert run(workdir, "reconstruct", out) == EXIT_OK
        value = float(capsys.readouterr().out.split("relative_loss=")[1])
        rows = (out / "finetune_history.csv").read_text().splitlines()[1:]
        loss = min(float(row.split(",")[1]) for row in rows)
        targets = load_queryset(str(out / "queries.qs")).targets
        assert value == pytest.approx(loss / np.mean(np.sum(targets**2, axis=1)), rel=1e-3)
        assert f"fine-tuned loss / mean squared target: {value:.3e}\n" in \
            (out / "report.txt").read_text()

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

    @pytest.mark.parametrize("command", ["train-students", "reconstruct"])
    def test_teacher_that_does_not_fit_the_queries_is_a_config_error(
            self, workdir, queries, capsys, monkeypatch, command):
        # the query set has d=16 and c=5; this teacher gives c=3
        out = workdir / f"teacher_c3_{command}"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5)] * 3)
        save_mlp(init_mlp(2, 16, 3), str(out / "teacher.mlp"))
        real, calls = train.train_student, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(train, "train_student", counting)
        assert run(workdir, command, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "teacher.mlp: teacher has d=16 c=3, but the query set has d=16 c=5" in err
        assert calls == []
        assert not (out / "losses.csv").exists() and not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "train-students"])
    def test_teacher_that_did_not_label_the_queries_is_refused(self, workdir, queries, capsys,
                                                               command):
        out = workdir / f"other_teacher_{command}"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5)] * 3)
        record = f"{container_crc(str(out / 'queries.qs')):08x}\n"
        (out / "students" / "queries.crc32").write_text(record)
        # the shape of the teacher that labelled queries.qs, with other weights
        save_mlp(init_mlp(2, 16, 5, seed=1), str(out / "teacher.mlp"))
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert run(workdir, command, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "teacher.mlp: the teacher does not reproduce the query set's targets" in err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("scale, refused", [(1 + 1e-12, False), (1 + 1e-6, True)])
    def test_teacher_check_passes_rounding_only(self, queries, scale, refused):
        qs = load_queryset(str(queries / "queries.qs"))
        nudged = QuerySet(inputs=qs.inputs, targets=scale * qs.targets)
        path = str(queries / "teacher.mlp")
        if refused:
            with pytest.raises(ConfigError, match="does not reproduce"):
                cli._load_teacher(path, nudged)
        else:
            assert cli._load_teacher(path, nudged).theta.tobytes() == \
                load_mlp(path).theta.tobytes()

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

    def test_rerun_without_eval_leaves_no_earlier_losses_csv(self, workdir, queries):
        out = workdir / "rerun_no_eval"
        self.copy_queries(queries, out)
        with_eval = workdir / "rerun_eval.ini"
        with_eval.write_text((workdir / "run.ini").read_text().replace(
            "max_steps = 6000", "max_steps = 20"))
        without = workdir / "rerun_no_eval.ini"
        text = with_eval.read_text()
        without.write_text(text[:text.index("[eval]")])
        assert main(["train-students", "--config", str(with_eval), "--out", str(out)]) == EXIT_OK
        assert (out / "losses.csv").is_file()
        assert main(["train-students", "--config", str(without), "--out", str(out)]) == EXIT_OK
        assert (out / "students" / "losses.csv").is_file()
        assert not (out / "losses.csv").exists()

    @staticmethod
    def counting_students(monkeypatch):
        real, calls = train.train_student, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(train, "train_student", counting)
        return calls

    def test_resume_refuses_students_of_another_query_set(self, workdir, queries, capsys,
                                                           monkeypatch):
        out = workdir / "requeried"
        self.copy_queries(queries, out)
        config = workdir / "requery.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "max_steps = 6000", "max_steps = 20"))
        assert main(["train-students", "--config", str(config), "--out", str(out)]) == EXIT_OK
        trailer = (out / "queries.qs").read_bytes()[-4:]
        assert (out / "students" / "queries.crc32").read_text() == \
            f"{struct.unpack('<I', trailer)[0]:08x}\n{load_config(str(config)).students.train!r}\n"
        # the same run, but its queries are rebuilt with another seed
        other = workdir / "requery_seed.ini"
        other.write_text(config.read_text().replace("[query]\n", "[query]\nseed = 77\n"))
        assert main(["build-queries", "--config", str(other), "--out", str(out)]) == EXIT_OK
        assert (out / "queries.qs").read_bytes()[-4:] != trailer
        (out / "students" / "student_01.mlp").unlink()
        kept = {path: path.read_bytes() for path in (out / "students").iterdir()}
        calls = self.counting_students(monkeypatch)
        code = main(["train-students", "--config", str(other), "--out", str(out), "--resume"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "queries.crc32: the kept students were fitted to the query set with" in err
        assert "train them again without --resume" in err
        assert calls == []
        assert {path: path.read_bytes() for path in (out / "students").iterdir()} == kept

    def test_resume_refuses_students_without_a_query_set_record(self, workdir, queries,
                                                                capsys, monkeypatch):
        out = workdir / "unrecorded"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5), (8, 16, 5)])
        calls = self.counting_students(monkeypatch)
        assert run(workdir, "train-students", out, "--resume") == EXIT_CONFIG
        assert "with CRC32 unrecorded, but" in capsys.readouterr().err
        assert calls == []
        assert not (out / "students" / "student_02.mlp").exists()

    @pytest.mark.parametrize("command", [["train-students", "--resume"], ["reconstruct"]],
                             ids=["resume", "reconstruct"])
    def test_students_of_other_settings_are_refused(self, workdir, queries, capsys, monkeypatch,
                                                    command):
        out = workdir / f"resettled_{command[0]}"
        self.copy_queries(queries, out)
        text = (workdir / "run.ini").read_text()
        trained, other = workdir / "settings_20.ini", workdir / "settings_400.ini"
        trained.write_text(text.replace("max_steps = 6000", "max_steps = 20"))
        other.write_text(text.replace("max_steps = 6000", "max_steps = 400"))
        assert main(["train-students", "--config", str(trained), "--out", str(out)]) == EXIT_OK
        if "--resume" in command:
            (out / "students" / "student_01.mlp").unlink()
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        students = self.counting_students(monkeypatch)
        reconstructions = self.counting_reconstructions(monkeypatch)
        assert main([command[0], "--config", str(other), "--out", str(out),
                     *command[1:]]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "queries.crc32: " in err and "students were fitted under [students] settings" in err
        assert "max_steps=20," in err and "max_steps=400," in err
        assert students == [] and reconstructions == []
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_resume_may_grow_the_ensemble(self, workdir, queries):
        # n is left out of the record, so a resume under a larger n trains the new slots only
        out = workdir / "grown"
        self.copy_queries(queries, out)
        text = (workdir / "run.ini").read_text().replace("max_steps = 6000", "max_steps = 20")
        three, four = workdir / "grow_3.ini", workdir / "grow_4.ini"
        three.write_text(text)
        four.write_text(text.replace("n = 3\n", "n = 4\n"))
        assert main(["train-students", "--config", str(three), "--out", str(out)]) == EXIT_OK
        kept = {path: path.read_bytes() for path in (out / "students").glob("student_*")}
        assert main(["train-students", "--config", str(four), "--out", str(out),
                     "--resume"]) == EXIT_OK
        assert {path: path.read_bytes() for path in kept} == kept
        assert (out / "students" / "student_03.mlp").is_file()

    @staticmethod
    def counting_reconstructions(monkeypatch):
        real, calls = cli.run_reconstruction, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "run_reconstruction", counting)
        return calls

    def test_reconstruct_refuses_students_of_another_query_set(self, workdir, queries, capsys,
                                                               monkeypatch):
        out = workdir / "requeried_reconstruct"
        self.copy_queries(queries, out)
        config = workdir / "requery_reconstruct.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "max_steps = 6000", "max_steps = 20"))
        assert main(["train-students", "--config", str(config), "--out", str(out)]) == EXIT_OK
        trailer = (out / "queries.qs").read_bytes()[-4:]
        # the same run, but its queries are rebuilt with another seed
        other = workdir / "requery_reconstruct_seed.ini"
        other.write_text(config.read_text().replace("[query]\n", "[query]\nseed = 77\n"))
        assert main(["build-queries", "--config", str(other), "--out", str(out)]) == EXIT_OK
        assert (out / "queries.qs").read_bytes()[-4:] != trailer
        calls = self.counting_reconstructions(monkeypatch)
        assert main(["reconstruct", "--config", str(other), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "queries.crc32: the students were fitted to the query set with" in err
        assert f"CRC32 {struct.unpack('<I', trailer)[0]:08x}, but" in err
        assert "run train-students again" in err
        assert calls == []
        assert not (out / "report.csv").exists() and not (out / "reconstructed.mlp").exists()

    def test_reconstruct_refuses_students_without_a_query_set_record(self, workdir, queries,
                                                                     capsys, monkeypatch):
        out = workdir / "unrecorded_reconstruct"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5)] * 3)
        calls = self.counting_reconstructions(monkeypatch)
        assert run(workdir, "reconstruct", out) == EXIT_CONFIG
        assert "with CRC32 unrecorded, but" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("history,needle", [
        (b"step,loss,lr\n", "at least one row"),
        (b"step,loss,lr\n0,1.0,0.02\n40,garbled\n", "unreadable training history"),
        (b"step,loss,lr\n0,1.0,0.02\xff\n", "unreadable training history"),
    ], ids=["header_only", "garbled_row", "not_utf8"])
    def test_unreadable_kept_history_is_a_config_error(self, workdir, queries, capsys,
                                                       monkeypatch, history, needle):
        # found with the kept model files, before slot 2 trains
        out = workdir / f"bad_history_{len(history)}"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5), (8, 16, 5)])
        (out / "students" / "student_01.history.csv").write_bytes(history)
        real, calls = train.train_student, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(train, "train_student", counting)
        assert run(workdir, "train-students", out, "--resume") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "student_01.history.csv" in err and needle in err
        assert calls == []
        assert not (out / "students" / "student_02.mlp").exists()

    @pytest.mark.parametrize("command,extra,mismatch", [
        ("reconstruct", [], "the students were fitted"),
        ("train-students", ["--resume"], "the kept students were fitted"),
    ], ids=["reconstruct", "resume"])
    @pytest.mark.parametrize("record", ["not_utf8", "directory"])
    def test_unreadable_query_set_record_is_a_config_error(self, workdir, queries, capsys,
                                                           monkeypatch, command, extra,
                                                           mismatch, record):
        out = workdir / f"record_{record}_{command}"
        self.copy_queries(queries, out)
        self.write_students(out, [(8, 16, 5)] * 3)
        path = out / "students" / "queries.crc32"
        if record == "directory":
            path.mkdir()
        else:  # the right CRC32 behind one byte that is no UTF-8
            trailer = (out / "queries.qs").read_bytes()[-4:]
            path.write_bytes(b"\xff" + f"{struct.unpack('<I', trailer)[0]:08x}\n".encode())
        students = self.counting_students(monkeypatch)
        reconstructions = self.counting_reconstructions(monkeypatch)
        assert run(workdir, command, out, *extra) == EXIT_CONFIG
        needle = "cannot read the query-set record" if record == "directory" else mismatch
        assert f"queries.crc32: {needle}" in capsys.readouterr().err
        assert students == [] and reconstructions == []
        assert not (out / "report.csv").exists()


class TestPipeline:
    def test_runs_end_to_end_and_is_deterministic(self, workdir):
        out_a, out_b = workdir / "pipe_a", workdir / "pipe_b"
        assert run(workdir, "pipeline", out_a) == EXIT_OK
        assert run(workdir, "pipeline", out_b, "--jobs", "2") == EXIT_OK
        for name in ("report.csv", "report.txt", "losses.csv", "teacher.mlp", "queries.qs",
                     "reconstructed.mlp", "finetune_history.csv"):
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
        # Adam's constants are fixed in code, so a key for one is unknown
        config = workdir / "beta1.ini"
        config.write_text((workdir / "run.ini").read_text().replace(
            "[students]\n", "[students]\nadam_beta1 = 1.0\n"))
        out = workdir / "never3"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("edits,needle", [
        ([("seed = 0\n", "seed = -1\n")], "[teacher] seed must be >= 0"),
        ([("[query]\n", "[query]\nseed = -5\n")], "[query] seed must be >= 0"),
        # the teacher's subset is drawn with the run seed itself
        ([("seed = 0\n", "seed = -1\n"), ("hidden = 2\n", "hidden = 2\nsubset = 500\n")]
         + [(f"[{name}]\n", f"[{name}]\nseed = 3\n")
            for name in ("teacher", "query", "students", "reconstruct")],
         "[run] seed must be >= 0"),
    ], ids=["run", "query", "run_with_section_seeds"])
    def test_negative_seed_is_a_config_error(self, workdir, capsys, edits, needle):
        text = (workdir / "run.ini").read_text()
        for old, new in edits:
            text = text.replace(old, new)
        config = workdir / "negative_seed.ini"
        config.write_text(text)
        out = workdir / "never_negative_seed"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert needle in capsys.readouterr().err
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

    def test_empty_reconstruction_removes_the_earlier_net(self, workdir):
        # a net and fine-tune history left by a successful run must not stand
        # next to the report of a later, empty reconstruction
        out = workdir / "empty_after_success"
        assert run(workdir, "pipeline", out) == EXIT_OK
        assert (out / "reconstructed.mlp").is_file()
        config = workdir / "empty_after_success.ini"
        config.write_text((workdir / "run.ini").read_text()
                          .replace("gamma = 0.6", "gamma = 1.0")
                          .replace("beta = 3.0", "beta = 12.0"))
        code = main(["reconstruct", "--config", str(config), "--out", str(out)])
        assert code == EXIT_EMPTY_RECONSTRUCTION
        assert (out / "report.csv").read_text().splitlines()[1].split(",")[3] == "0.0"
        assert not (out / "reconstructed.mlp").exists()
        assert not (out / "finetune_history.csv").exists()

    def test_env_var_sets_output_dir(self, workdir, monkeypatch):
        out = workdir / "env_out"
        monkeypatch.setenv("NETRECON_OUT", str(out))
        assert main(["train-teacher", "--config", str(workdir / "run.ini")]) == EXIT_OK
        assert (out / "teacher.mlp").is_file()

    def test_unreadable_config(self, workdir):
        assert main(["pipeline", "--config", str(workdir / "none.ini")]) == EXIT_CONFIG

    def test_config_that_is_no_utf8_is_a_config_error(self, workdir, capsys):
        config = workdir / "latin1.ini"
        config.write_bytes((workdir / "run.ini").read_bytes().replace(b"[run]", b"[run]\n#\xe9"))
        assert main(["pipeline", "--config", str(config)]) == EXIT_CONFIG
        assert f"cannot read config {config}" in capsys.readouterr().err


LAYOUT_CONFIG = """
[run]
seed = 0
output_dir = out

[teacher]
train_images = train_images.idx
train_labels = train_labels.idx
hidden = 2
learning_rate = 0.01
batch_size = 64
max_steps = 40
eval_every = 20

[query]
strategy = biased_noise
base_subset = 100
magnitude = 1.0

[students]
n = 2
rho = 4
learning_rate = 0.02
batch_size = 64
max_steps = 20
eval_every = 10

[reconstruct]
gamma = 1.0
beta = 9.0
learning_rate = 0.003
batch_size = 256
max_steps = 20
eval_every = 10

[eval]
ood = ood_images.idx, ood_labels.idx
"""

SLOTS = [[f"out/students/student_{i:02d}{ext}" for ext in (".mlp", ".history.csv")]
         for i in range(2)]
RECORD = "out/students/queries.crc32"
DATA = ["run.ini", "train_images.idx", "train_labels.idx"]
# the files each stage reads, and the files it writes; paths are relative to a
# case directory, and the config names its inputs relative to it too
LAYOUT_STAGES = {
    "train-teacher": (DATA, ["out/teacher.mlp", "out/teacher_history.csv"]),
    "build-queries": (DATA + ["out/teacher.mlp"], ["out/queries.qs"]),
    "train-students": (
        DATA + ["ood_images.idx", "ood_labels.idx", "out/teacher.mlp", "out/queries.qs"],
        [*SLOTS[0], *SLOTS[1], "out/students/losses.csv",
         "out/students/ensemble_summary.csv", "out/losses.csv", RECORD]),
    "reconstruct": (["run.ini", "out/teacher.mlp", "out/queries.qs", RECORD, SLOTS[0][0],
                     SLOTS[1][0]],
                    ["out/reconstructed.mlp", "out/finetune_history.csv", "out/report.csv",
                     "out/report.txt"]),
}
# the mtime every file of a prepared layout gets: a file that still has it after
# a stage is an earlier run's, one written by the stage does not
EARLIER = 946_684_800 * 10**9


def _layout_cases():
    for command, layouts in (("train-teacher", ["pipeline"]), ("build-queries", ["pipeline"]),
                             ("train-students", ["pipeline"]),
                             ("train-students --resume", ["pipeline"]),
                             ("reconstruct", ["pipeline", "recovered"])):
        reads, writes = LAYOUT_STAGES[command.split()[0]]
        in_students = any(p.startswith("out/students/") for p in reads + writes)
        dirs = ["out", "out/students"] if in_students else ["out"]
        cases = [(path, kind) for path in dict.fromkeys(reads + writes)
                 for kind in ("directory", "empty")] + [(path, "file") for path in dirs]
        cases += [(path, "missing") for path in reads]
        for layout in layouts:
            for path, kind in cases:
                yield pytest.param(command.split(), layout, path, kind,
                                   id=f"{command.replace(' --', '_')}-{layout}-{path}-{kind}")


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """Two finished output layouts, each with the data and config it was made from:
    "pipeline" after all four stages, whose reconstruction was empty (exit 4), and
    "recovered" after a reconstruction from two identical students (exit 0)."""
    root = tmp_path_factory.mktemp("layouts")
    pipeline, recovered = root / "pipeline", root / "recovered"
    pipeline.mkdir()
    train = make_synthetic_classification(200, height=4, width=4, n_classes=5, seed=0)
    save_idx(train, str(pipeline / "train_images.idx"), str(pipeline / "train_labels.idx"))
    ood = make_synthetic_classification(50, height=4, width=4, n_classes=5,
                                        style="stripes", seed=9)
    save_idx(ood, str(pipeline / "ood_images.idx"), str(pipeline / "ood_labels.idx"))
    (pipeline / "run.ini").write_text(LAYOUT_CONFIG)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(pipeline)
        for command, code in (("train-teacher", EXIT_OK), ("build-queries", EXIT_OK),
                              ("train-students", EXIT_OK),
                              ("reconstruct", EXIT_EMPTY_RECONSTRUCTION)):
            assert main([command, "--config", "run.ini", "--out", "out"]) == code
        shutil.copytree(pipeline, recovered)
        mp.chdir(recovered)
        for model, history in SLOTS:  # identical students: every neuron is a cluster
            save_mlp(init_mlp(8, 16, 5, seed=0), model)
            (recovered / history).write_text("step,loss,lr\n0,1.0,0.02\n")
        for name in ("report.csv", "report.txt"):
            (recovered / "out" / name).unlink()
        assert main(["reconstruct", "--config", "run.ini", "--out", "out"]) == EXIT_OK
    return {"pipeline": pipeline, "recovered": recovered}


class TestOutputLayoutFuzz:
    """Every stage against a hostile output layout: at each path it reads or
    writes, a directory, an empty file, or a regular file where a directory goes,
    and at each path it reads, no file at all.

    Each run exits 0, 2, 3 or 4 and never raises, an exit 2 prints one error
    line, and the stage's outputs are either all the earlier run's, unchanged,
    or none of them is: earlier and new artifacts never stand side by side. A
    missing input exits 2 naming its path, except a student model: its slot is
    empty, as a diverged student's, which leaves too few students here.
    Read-only files and directories and a full disk are not covered: a process
    running as root is not refused by permission bits, and a test cannot fill
    a disk safely.
    """

    @staticmethod
    def put(path, kind):
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes(b"" if kind == "empty" else b"a file where a directory goes\n")

    @pytest.mark.parametrize("command,layout,path,kind", list(_layout_cases()))
    def test_layout(self, layouts, tmp_path, monkeypatch, capsys, command, layout, path,
                    kind):
        case = tmp_path / "case"
        shutil.copytree(layouts[layout], case)
        self.put(case / path, kind)
        for item in [case, *case.rglob("*")]:
            os.utime(item, ns=(EARLIER, EARLIER))
        _, writes = LAYOUT_STAGES[command[0]]
        if "--resume" in command:  # a complete slot is kept, so it is an input
            writes = [p for p in writes if not any(
                p in slot and all((case / s).is_file() for s in slot) for slot in SLOTS)]
        earlier = {p: (case / p).read_bytes() for p in writes if (case / p).is_file()}
        monkeypatch.chdir(case)
        code = main([command[0], "--config", "run.ini", "--out", "out", *command[1:]])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_EMPTY_RECONSTRUCTION)
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.count("\n") == 1 and err.startswith(("config error: ", "error: ")), err
            if kind == "directory" and path in writes:
                assert path in err
        if kind == "missing":
            assert code == EXIT_CONFIG
            assert ("need at least two trained students"
                    if path in (SLOTS[0][0], SLOTS[1][0]) else path) in err, err
        files = [p for p in writes if (case / p).is_file()]
        old = {p for p in files if (case / p).stat().st_mtime_ns == EARLIER}
        new = set(files) - old
        assert old in (set(), set(earlier)), f"{sorted(old)} of {sorted(earlier)} are left"
        assert not (old and new), f"earlier {sorted(old)} beside new {sorted(new)}"
        assert all((case / p).read_bytes() == earlier[p] for p in old)

    @pytest.mark.parametrize("command,path", [
        (command, path) for command in ("train-teacher", "build-queries", "reconstruct")
        for path in LAYOUT_STAGES[command][1]])
    def test_directory_at_an_output_is_refused_before_compute(self, layouts, tmp_path,
                                                              monkeypatch, capsys, command,
                                                              path):
        def compute(*args, **kwargs):
            raise AssertionError(f"{command} computed before it refused {path}")

        for name in ("train_teacher", "build", "query_teacher", "run_reconstruction"):
            monkeypatch.setattr(cli, name, compute)
        case = tmp_path / "case"
        shutil.copytree(layouts["recovered"], case)
        self.put(case / path, "directory")
        monkeypatch.chdir(case)
        assert main([command, "--config", "run.ini", "--out", "out"]) == EXIT_CONFIG
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("command,kind", [
        pytest.param(["reconstruct"], "directory", id="directory"),
        pytest.param(["reconstruct"], "missing", id="missing"),
        pytest.param(["train-students", "--resume"], "directory", id="resume-directory"),
    ])
    def test_student_model_path_that_is_no_file(self, layouts, tmp_path, monkeypatch,
                                                capsys, command, kind):
        # a directory is named; a missing file is an empty slot, as a diverged student
        case = tmp_path / "case"
        shutil.copytree(layouts["recovered"], case)
        (case / SLOTS[0][0]).unlink()
        if kind == "directory":
            (case / SLOTS[0][0]).mkdir()
        calls = []
        monkeypatch.setattr(train, "train_student", lambda *args: calls.append(args))
        monkeypatch.chdir(case)
        assert main([command[0], "--config", "run.ini", "--out", "out",
                     *command[1:]]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (SLOTS[0][0] in err) == (kind == "directory")
        assert ("need at least two trained students" in err) == (kind == "missing")
        assert calls == []
