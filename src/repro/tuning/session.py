"""Crash-safe, resumable tuning sessions.

A :class:`TuneSession` is a directory with two files:

``session.json``
    The immutable metadata of the run — problem shape, GPU, tuning method,
    trial budget, seed, space cap — written once at creation. Resume reads
    it back so ``repro tune --resume <dir>`` needs no other arguments.
``trials.jsonl``
    The trial journal: one JSON object per measured trial, appended with
    ``flush`` + ``fsync`` *before* the tuner moves on. A crash (or SIGKILL)
    between trials loses at most the trial in flight.

Resume-as-replay
----------------
Resuming does **not** try to restore tuner internals (XGBoost ensembles,
simulated-annealing chains) from disk. Instead it re-runs the seeded tuner
from scratch with the journal preloaded into the measurer's in-memory
cache: the tuner re-proposes the same configs (same seed → same RNG
trajectory), every already-journalled trial is a cache hit (costing
microseconds, not compile time), and the run continues exactly where it
died. The resumed run therefore converges to the *same best config* as an
uninterrupted run by construction — which ``tests/chaos/test_resume.py``
asserts end-to-end.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Dict, List, Tuple, Union

from .. import faults
from ..core.degrade import DiskDegrade
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = ["TuneSession", "META_FILE", "JOURNAL_FILE"]

META_FILE = "session.json"
JOURNAL_FILE = "trials.jsonl"


def _fsync_dir(path: pathlib.Path) -> None:
    """fsync a directory so renames/creations inside it are durable.
    Platforms whose directory fds refuse fsync (e.g. Windows) are skipped —
    there is no portable equivalent, and the data-file fsyncs still hold."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class TuneSession:
    """One resumable tuning run, journalled under ``path``."""

    def __init__(self, path: Union[str, pathlib.Path], meta: Dict) -> None:
        self.path = pathlib.Path(path)
        self.meta = dict(meta)
        #: journalled trials in append order (config, latency_us).
        self._trials: List[Tuple[TileConfig, float]] = []
        self._seen: set = set()
        self._journal_f = None
        self._degrade = DiskDegrade(
            f"session journal at {self.path}",
            "trials from here on cannot be replayed by --resume after a crash")
        #: whether the session directory has been fsynced since the
        #: journal file was (re)created, making the file's *existence*
        #: durable, not just its contents.
        self._dir_synced = False

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, path: Union[str, pathlib.Path], **meta) -> "TuneSession":
        """Start a fresh session: create the directory, write the metadata.

        Refuses to clobber an existing journal — a directory that already
        holds trials must be resumed (:meth:`load`), not recreated.
        """
        path = pathlib.Path(path)
        if (path / JOURNAL_FILE).exists() and (path / JOURNAL_FILE).stat().st_size > 0:
            raise FileExistsError(
                f"{path} already holds a trial journal; resume it with "
                f"--resume {path} instead of starting a new session there"
            )
        path.mkdir(parents=True, exist_ok=True)
        session = cls(path, meta)
        # Durable publish: fsync the tmp file before the rename (so the
        # metadata bytes reach disk before the name does) and fsync the
        # directory after it (so the rename itself survives power loss).
        # Without both, a crash can leave a session whose journal exists
        # but whose metadata vanished — unresumable.
        tmp = path / (META_FILE + ".tmp")
        with open(tmp, "w") as f:
            f.write(json.dumps(session.meta, indent=1, sort_keys=True))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path / META_FILE)
        _fsync_dir(path)
        return session

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TuneSession":
        """Open an existing session and replay its journal.

        A torn final line (the process died mid-write) is dropped; every
        complete line is recovered.
        """
        path = pathlib.Path(path)
        meta_path = path / META_FILE
        if not meta_path.exists():
            raise FileNotFoundError(
                f"{path} is not a tuning session (no {META_FILE}); was it "
                "created with --session-dir?"
            )
        session = cls(path, json.loads(meta_path.read_text()))
        journal = path / JOURNAL_FILE
        if journal.exists():
            for line in journal.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    cfg = TileConfig(**entry["config"])
                    latency = entry["latency_us"]
                    latency = math.inf if latency == "inf" else float(latency)
                except (ValueError, KeyError, TypeError):
                    continue  # torn trailing write from the crash
                session._remember(cfg, latency)
        return session

    def close(self) -> None:
        if self._journal_f is not None:
            self._journal_f.close()
            self._journal_f = None

    def __enter__(self) -> "TuneSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- journal
    def _remember(self, cfg: TileConfig, latency_us: float) -> bool:
        key = cfg.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._trials.append((cfg, latency_us))
        return True

    @property
    def disk_errors(self) -> int:
        """Journal writes absorbed by degrading to memory-only operation."""
        return self._degrade.disk_errors

    @property
    def degraded(self) -> bool:
        """True once a disk failure stopped journalling (trials stay in
        memory; the run continues, it just loses crash-resumability)."""
        return self._degrade.degraded

    def _note_disk_error(self, exc: OSError) -> None:
        """Stop journalling: warn once, count every occurrence. The trial
        itself is already remembered in memory, so tuning continues — the
        run just loses crash-resumability from this point on."""
        self._degrade.note("append a trial", exc)
        if self._journal_f is not None:
            try:
                self._journal_f.close()
            except OSError:
                pass
            self._journal_f = None

    def log_trial(self, cfg: TileConfig, latency_us: float) -> None:
        """Durably append one trial. The line is flushed *and* fsynced
        before returning, so a crash immediately after a measurement never
        loses it. Re-logging an already-journalled config is a no-op (the
        replayed prefix of a resumed run). A journal hitting ``OSError``
        (ENOSPC, EIO) degrades to memory-only instead of killing the run.
        """
        if not self._remember(cfg, latency_us):
            return
        if self.degraded:
            return
        line = json.dumps(
            {
                "trial": len(self._trials) - 1,
                "config": cfg.as_dict(),
                "latency_us": "inf" if math.isinf(latency_us) else latency_us,
            },
            sort_keys=True,
        )
        try:
            faults.inject("disk", token=f"journal:{self.path.name}", kinds=("crash",))
            if self._journal_f is None:
                journal = self.path / JOURNAL_FILE
                # An append that *creates* the file needs a directory fsync
                # or the just-created journal (fsynced contents and all) can
                # vanish with its directory entry after a crash + power loss.
                self._dir_synced = journal.exists()
                self._journal_f = open(journal, "a")
            self._journal_f.write(line + "\n")
            self._journal_f.flush()
            os.fsync(self._journal_f.fileno())
        except OSError as e:
            self._note_disk_error(e)
            return
        if not self._dir_synced:
            _fsync_dir(self.path)
            self._dir_synced = True

    # --------------------------------------------------------------- replay
    @property
    def trials(self) -> List[Tuple[TileConfig, float]]:
        return list(self._trials)

    def __len__(self) -> int:
        return len(self._trials)

    def preload(self, measurer, spec: GemmSpec) -> int:
        """Seed ``measurer``'s in-memory cache with the journalled results
        so a resumed tuner replays its prefix as cache hits. Returns the
        number of entries loaded."""
        for cfg, latency in self._trials:
            measurer._cache[measurer._key(spec, cfg)] = latency
        return len(self._trials)

    # ----------------------------------------------------------------- meta
    def describe(self) -> str:
        m = self.meta
        return (
            f"session {self.path} ({m.get('m')}x{m.get('n')}x{m.get('k')} "
            f"batch={m.get('batch', 1)} on {m.get('gpu', '?')}, "
            f"method={m.get('method', '?')} seed={m.get('seed', 0)}): "
            f"{len(self)} trial(s) journalled"
        )
