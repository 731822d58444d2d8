"""Versioned binary checkpoints for the MLP noise predictor.

Layout: 8-byte magic, uint32-LE header length, UTF-8 JSON header, then the
payload: MlpEpsModel.params as stored, little-endian float64 in layer order
(W1, b1, W2, b2, ...), each W row-major (fan_in, fan_out).
The header records dim, hidden and emb_dim (the network's shape), the
schedule fingerprint and the training seed; loading validates all of them so
a checkpoint cannot silently be reused with a different diffusion process.
Checkpoints, like every file the package writes, go through atomic_write, so
a failed write leaves the old file whole.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import CheckpointError
from .models import MlpEpsModel
from .schedule import NoiseSchedule

MAGIC = b"EPSMLP\x00\x01"
FORMAT_VERSION = 1


def atomic_write(path, data) -> None:
    """Write `data`, bytes or a str, via <path>.tmp and a rename; on failure
    no .tmp is left behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(model: MlpEpsModel, path) -> None:
    header = {
        "version": FORMAT_VERSION,
        "dim": model.dim,
        "hidden": list(model.hidden),
        "emb_dim": model.emb_dim,
        "schedule_fingerprint": model.sched.fingerprint(),
        "train_seed": model.seed,
        "step_count": model.step_count,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    params = model.params.astype("<f8", copy=False)
    atomic_write(path, b"".join([MAGIC, struct.pack("<I", len(blob)), blob, params]))


def _is_int(v, low: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _check_header(header, path) -> None:
    """Raise CheckpointError unless the header holds every key load_checkpoint
    reads, with a usable type."""
    if not isinstance(header, dict):
        raise CheckpointError(f"corrupt checkpoint header in {path}: not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version {header.get('version')} unsupported (expected {FORMAT_VERSION})"
        )
    hidden, emb_dim = header.get("hidden"), header.get("emb_dim")
    checks = {
        "schedule_fingerprint": isinstance(header.get("schedule_fingerprint"), str),
        "dim": _is_int(header.get("dim"), 1),
        "hidden": isinstance(hidden, list) and all(_is_int(h, 1) for h in hidden),
        "emb_dim": _is_int(emb_dim, 2) and emb_dim % 2 == 0,  # sin and cos halves
        "train_seed": _is_int(header.get("train_seed"), 0),
        "step_count": _is_int(header.get("step_count", 0), 0),
    }
    bad = [key for key, ok in checks.items() if not ok]
    if bad:
        raise CheckpointError(f"corrupt checkpoint header in {path}: missing or invalid {', '.join(bad)}")


def load_checkpoint(path, sched: NoiseSchedule) -> MlpEpsModel:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path} is not a model checkpoint (bad magic)")
    off = len(MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    try:
        header = json.loads(raw[off : off + hlen].decode())
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}") from exc
    off += hlen
    _check_header(header, path)
    if header["schedule_fingerprint"] != sched.fingerprint():
        raise CheckpointError(
            "checkpoint was trained against a different noise schedule "
            f"({header['schedule_fingerprint'][:12]}... != {sched.fingerprint()[:12]}...)"
        )
    # count the parameters before building the model, so a corrupt size
    # cannot ask for a huge allocation
    expected = MlpEpsModel.param_count(header["dim"], header["hidden"], header["emb_dim"])
    n_bytes = len(raw) - off
    if n_bytes != 8 * expected:
        raise CheckpointError(
            f"truncated checkpoint: {n_bytes} parameter bytes, expected {8 * expected}"
        )
    model = MlpEpsModel(
        sched,
        dim=header["dim"],
        hidden=tuple(header["hidden"]),
        emb_dim=header["emb_dim"],
        seed=header["train_seed"],
    )
    model.step_count = header.get("step_count", 0)
    model.params[...] = np.frombuffer(raw, dtype="<f8", offset=off)
    if not np.isfinite(model.params).all():
        raise CheckpointError(f"checkpoint {path} holds non-finite parameters")
    return model
