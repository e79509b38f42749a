"""The four workloads: their inputs, CLI arguments and output checks.

Each workload writes its inputs from the benchmark seed, passes the same
seed to the CLI as ``--seed``, and checks every invocation's outputs.  The
parameters below are the whole definition of a workload; ``reference.py``
reads ``SINGLE`` and ``PAIRWISE`` from here too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import checks
import dense

# embed_file: one shared (D, P) over 8,000 rows, so the per-row apply, the
# row loop in cli and file I/O do the work and P is sampled once.
EMBED = {"rows": 8000, "raw_d": 1000, "d": 1024, "eps": 0.2, "n": 1e5}
EMBED.update(k=dense.jl_k(EMBED["eps"], EMBED["n"]),
             q=dense.theorem1_q(EMBED["eps"], EMBED["n"], EMBED["d"]))

# mc_single: a fresh (D, P) per trial at d=1024, over two 4096-trial blocks.
SINGLE = {"d": 1024, "eps": 0.25, "n": 64.0, "c_q": 4.0, "c_k": 4.0}
SINGLE.update(k=dense.jl_k(SINGLE["eps"], SINGLE["n"], SINGLE["c_k"]),
              q=dense.theorem1_q(SINGLE["eps"], SINGLE["n"], SINGLE["d"], SINGLE["c_q"]))
SINGLE_TRIALS = 8192

# mc_pairwise: 128 Gaussian points at d=200 (padded to 256), so the inline
# projection, the 8,128 distances and the dense-H FWHT path do the work.
PAIRWISE = {"points": 128, "raw_d": 200, "d": 256, "k": 256, "eps": 0.5, "n": 128.0, "c_q": 2.0}
PAIRWISE.update(q=dense.theorem1_q(PAIRWISE["eps"], PAIRWISE["n"], PAIRWISE["d"], PAIRWISE["c_q"]))
PAIRWISE_TRIALS = 64

# lemma_grid: the binomial z-statistics, exact oracles and chi-square/MGF
# Monte Carlo of verify-lemmas; none of it touches the PHD path.
LEMMA_TRIALS = 10000

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _num(x: float) -> str:
    return repr(float(x))


def _read_jsonl(path: Path) -> list[dict]:
    try:
        return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    except (OSError, ValueError):
        return []


def _reference(name: str, config: dict) -> dict:
    ref = json.loads(REFERENCE.read_text())[name]
    if ref["config"] != config:
        raise SystemExit(f"{REFERENCE.name}: {name} was made for {ref['config']}, "
                         f"the workload is {config}; run perfbench/reference.py")
    return ref


class Workload:
    """One workload.  ``check`` returns (errors, signature, items) for one invocation;
    the signature must be the same at every worker count."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)

    def output(self, tag: str) -> Path:
        return self.work / f"{tag}.jsonl"


class EmbedFile(Workload):
    name = "embed_file"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from fastjl.transform import sample_projection, sample_signs

        c = EMBED
        X = self.rng.standard_normal((c["rows"], c["raw_d"]))
        self.input = work / "embed_in.fjlv"
        self.input.write_bytes(checks.fjlv_bytes(X))
        diag = sample_signs(c["d"], seed)
        proj = sample_projection(c["k"], c["d"], c["q"], seed)
        P = dense.dense_projection(c["k"], c["d"], proj.indptr, proj.cols, proj.weights)
        self.expected = dense.pad_columns(X) @ dense.phd_matrix(diag.signs, P)

    def output(self, tag: str) -> Path:
        return self.work / f"{tag}.fjlv"

    def args(self, tag: str) -> list[str]:
        c = EMBED
        return ["embed", "--in", str(self.input), "--out", str(self.output(tag)),
                "--eps", _num(c["eps"]), "--n", _num(c["n"]), "--scheduler", "theorem1",
                "--seed", str(self.seed)]

    def check(self, rc: int, stdout: str, tag: str):
        try:
            raw = self.output(tag).read_bytes()
        except OSError:
            raw = b""
        errors = checks.check_embed(rc, stdout, raw, self.expected, EMBED["q"])
        return errors, hashlib.sha256(raw).hexdigest(), EMBED["rows"]


class _VerifyUpper(Workload):
    config: dict
    trials: int
    experiment: str

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.reference = _reference(self.name, self.config)

    def common_args(self, tag: str) -> list[str]:
        c = self.config
        return ["--eps", _num(c["eps"]), "--n", _num(c["n"]), "--scheduler", "theorem1",
                "--c-q", _num(c["c_q"]), "--trials", str(self.trials),
                "--report", str(self.output(tag)), "--seed", str(self.seed)]

    def check(self, rc: int, stdout: str, tag: str):
        records = _read_jsonl(self.output(tag))
        errors = checks.check_upper(rc, records, self.trials, self.experiment, self.reference,
                                    self.config["k"], self.config["q"])
        return errors, checks.success_counts(records), self.trials


class McSingle(_VerifyUpper):
    name = "mc_single"
    config = SINGLE
    trials = SINGLE_TRIALS
    experiment = "failure_rate"

    def args(self, tag: str) -> list[str]:
        return ["verify-upper", "--d", str(SINGLE["d"]), "--c-k", _num(SINGLE["c_k"]),
                *self.common_args(tag)]


class McPairwise(_VerifyUpper):
    name = "mc_pairwise"
    config = PAIRWISE
    trials = PAIRWISE_TRIALS
    experiment = "pairwise_failure_rate"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        points = self.rng.standard_normal((PAIRWISE["points"], PAIRWISE["raw_d"]))
        self.input = work / "points.fjlv"
        self.input.write_bytes(checks.fjlv_bytes(points))

    def args(self, tag: str) -> list[str]:
        c = PAIRWISE
        return ["verify-upper", "--pairwise", "--in", str(self.input), "--d", str(c["d"]),
                "--k", str(c["k"]), *self.common_args(tag)]


class LemmaGrid(Workload):
    name = "lemma_grid"

    def args(self, tag: str) -> list[str]:
        return ["verify-lemmas", "--trials", str(LEMMA_TRIALS), "--report", str(self.output(tag)),
                "--seed", str(self.seed)]

    def check(self, rc: int, stdout: str, tag: str):
        records = _read_jsonl(self.output(tag))
        errors = checks.check_lemmas(rc, records, LEMMA_TRIALS)
        if not records:
            errors.append("verify-lemmas wrote no records")
        items = sum(int(r.get("trials", 0)) for r in records)
        return errors, checks.success_counts(records), items


WORKLOADS = {w.name: w for w in (EmbedFile, McSingle, McPairwise, LemmaGrid)}
