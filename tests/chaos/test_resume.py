"""Crash-safe tuning sessions: journal durability, resume-as-replay, and
the acceptance criterion — a killed-and-resumed tune converges to the same
best config as an uninterrupted run."""

import json
import re

import pytest

from repro.cli import main
from repro.schedule.config import TileConfig
from repro.tuning.session import JOURNAL_FILE, META_FILE, TuneSession
from repro.tuning.tuners import Tuner

PROBLEM = ["--m", "256", "--n", "256", "--k", "512", "--space", "24",
           "--trials", "8", "--method", "xgb", "--seed", "3"]


def run_tune(capsys, *extra):
    rc = main(["tune", *PROBLEM, *extra])
    out = capsys.readouterr().out
    return rc, out


def best_schedule(out):
    m = re.search(r"best schedule: (.+)", out)
    assert m, out
    return m.group(1).strip()


class TestSession:
    def test_create_writes_meta(self, tmp_path):
        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64, seed=1)
        meta = json.loads((tmp_path / "s" / META_FILE).read_text())
        assert meta["m"] == 64 and meta["seed"] == 1
        assert len(s) == 0

    def test_create_refuses_existing_journal(self, tmp_path):
        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        s.log_trial(TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16), 1.0)
        s.close()
        with pytest.raises(FileExistsError, match="resume"):
            TuneSession.create(tmp_path / "s", m=64, n=64, k=64)

    def test_journal_roundtrip_including_failures(self, tmp_path):
        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        s.log_trial(TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16), 5.0)
        s.log_trial(TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16), float("inf"))
        s.close()
        again = TuneSession.load(tmp_path / "s")
        assert len(again) == 2
        assert again.trials[0][1] == 5.0
        assert again.trials[1][1] == float("inf")

    def test_duplicate_trials_journalled_once(self, tmp_path):
        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        s.log_trial(TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16), 5.0)
        s.log_trial(TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16), 5.0)
        s.close()
        lines = (tmp_path / "s" / JOURNAL_FILE).read_text().splitlines()
        assert len(lines) == 1

    def test_torn_final_line_is_dropped(self, tmp_path):
        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        s.log_trial(TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16), 5.0)
        s.close()
        journal = tmp_path / "s" / JOURNAL_FILE
        journal.write_text(journal.read_text() + '{"trial": 1, "config": {"bl')
        again = TuneSession.load(tmp_path / "s")
        assert len(again) == 1

    def test_load_rejects_non_session_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="session"):
            TuneSession.load(tmp_path)

    def test_journal_without_meta_is_a_clear_load_error(self, tmp_path):
        """A crash that lost session.json but kept the journal (the failure
        mode the durable-publish fix closes) must load-fail with the
        session message, not a random KeyError."""
        sdir = tmp_path / "s"
        sdir.mkdir()
        (sdir / JOURNAL_FILE).write_text(
            '{"trial": 0, "config": {"block_m": 32}, "latency_us": 1.0}\n'
        )
        with pytest.raises(FileNotFoundError, match="session"):
            TuneSession.load(sdir)


class TestDurability:
    """The fsync contract of the session files: metadata bytes reach disk
    before the metadata name does, and a journal's *existence* (the
    directory entry) is made durable on its first append."""

    CFG = TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16)

    def test_create_fsyncs_tmp_before_replace_and_dir_after(self, tmp_path, monkeypatch):
        import os as os_mod

        from repro.tuning import session as session_mod

        events = []
        real_fsync, real_replace = os_mod.fsync, os_mod.replace
        monkeypatch.setattr(
            session_mod.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            session_mod.os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        monkeypatch.setattr(
            session_mod, "_fsync_dir", lambda path: events.append("dirsync")
        )
        TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        assert events == ["fsync", "replace", "dirsync"], events
        assert not (tmp_path / "s" / (META_FILE + ".tmp")).exists()

    def test_first_journal_append_fsyncs_directory_once(self, tmp_path, monkeypatch):
        from repro.tuning import session as session_mod

        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        dirsyncs = []
        monkeypatch.setattr(
            session_mod, "_fsync_dir", lambda path: dirsyncs.append(path)
        )
        s.log_trial(self.CFG, 1.0)
        assert dirsyncs == [s.path], "creating the journal must fsync its directory"
        s.log_trial(TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16), 2.0)
        assert len(dirsyncs) == 1, "later appends need no directory fsync"
        s.close()

    def test_reopened_journal_skips_directory_fsync(self, tmp_path, monkeypatch):
        from repro.tuning import session as session_mod

        s = TuneSession.create(tmp_path / "s", m=64, n=64, k=64)
        s.log_trial(self.CFG, 1.0)
        s.close()
        again = TuneSession.load(tmp_path / "s")
        dirsyncs = []
        monkeypatch.setattr(
            session_mod, "_fsync_dir", lambda path: dirsyncs.append(path)
        )
        again.log_trial(TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16), 2.0)
        assert dirsyncs == [], "appending to an existing journal is already durable"
        again.close()

    def test_fsync_dir_tolerates_unsyncable_directory(self, tmp_path):
        from repro.tuning.session import _fsync_dir

        _fsync_dir(tmp_path / "does-not-exist")  # must not raise


class TestResume:
    def test_truncated_journal_resumes_to_same_best(self, capsys, tmp_path):
        """Kill-at-trial-4 simulation: drop the journal's tail, resume, and
        the best config must match the uninterrupted run."""
        sdir = tmp_path / "session"
        rc, out = run_tune(capsys, "--session-dir", str(sdir))
        assert rc == 0
        baseline = best_schedule(out)
        journal = sdir / JOURNAL_FILE
        lines = journal.read_text().splitlines()
        assert len(lines) == 8
        journal.write_text("\n".join(lines[:4]) + "\n")

        rc, out = run_tune(capsys, "--resume", str(sdir))
        assert rc == 0
        assert "replaying 4 journalled trial(s)" in out
        assert best_schedule(out) == baseline
        assert len(journal.read_text().splitlines()) == 8

    def test_interrupted_run_exits_130_and_resumes(self, capsys, tmp_path, monkeypatch):
        """The full acceptance path: a run killed mid-tune (KeyboardInterrupt
        after 5 journalled trials) exits 130 with partial results saved;
        --resume completes it and reports the same best config as an
        uninterrupted baseline."""
        base_dir = tmp_path / "baseline"
        rc, out = run_tune(capsys, "--session-dir", str(base_dir))
        assert rc == 0
        baseline = best_schedule(out)

        orig_tune = Tuner.tune

        def tune_interrupted(self, n_trials, on_trial=None):
            count = 0

            def hook(cfg, latency):
                nonlocal count
                if on_trial is not None:
                    on_trial(cfg, latency)
                count += 1
                if count >= 5:
                    raise KeyboardInterrupt
            return orig_tune(self, n_trials, on_trial=hook)

        sdir = tmp_path / "killed"
        monkeypatch.setattr(Tuner, "tune", tune_interrupted)
        rc = main(["tune", *PROBLEM, "--session-dir", str(sdir)])
        captured = capsys.readouterr()
        assert rc == 130
        assert "interrupted" in captured.err
        assert f"--resume {sdir}" in captured.err
        assert len((sdir / JOURNAL_FILE).read_text().splitlines()) == 5

        monkeypatch.setattr(Tuner, "tune", orig_tune)
        rc, out = run_tune(capsys, "--resume", str(sdir))
        assert rc == 0
        assert best_schedule(out) == baseline

    def test_resume_restores_problem_from_meta(self, capsys, tmp_path):
        sdir = tmp_path / "session"
        rc, out = run_tune(capsys, "--session-dir", str(sdir))
        assert rc == 0
        baseline = best_schedule(out)
        # Resume with *no* problem flags at all.
        rc = main(["tune", "--resume", str(sdir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert best_schedule(out) == baseline

    def test_resume_with_trials_50_raises_the_budget(self, capsys, tmp_path):
        """--trials on --resume replaces the session's budget whatever its
        value, 50 (the fresh-run default) included; only an omitted
        --trials keeps the session's own."""
        sdir = tmp_path / "session"
        journal = sdir / JOURNAL_FILE
        problem = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
                   "--method", "random", "--seed", "1"]
        assert main(problem + ["--trials", "4", "--session-dir", str(sdir)]) == 0
        assert main(["tune", "--resume", str(sdir)]) == 0
        assert len(journal.read_text().splitlines()) == 4
        assert main(["tune", "--resume", str(sdir), "--trials", "50"]) == 0
        assert len(journal.read_text().splitlines()) == 50
        assert "no valid schedule" not in capsys.readouterr().out

    def test_tune_without_problem_or_resume_errors(self, capsys):
        rc = main(["tune"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err
