"""Command-line surface: embed datasets, run verification suites, benchmark.

Subcommands
-----------
embed         embed a vector file (one shared (D, P) draw for the whole set)
verify-upper  distortion failure rates on a unit vector or a point set
verify-lemmas analytic bound grids, exact oracles, and premise checks
verify-lower  the hard-instance witness (an expected-failure demonstration)
bench         apply-path timings for Dense / FastJL_AC / FastJL_New

Flags override config-file values (``--config``, flat ``key=value`` lines
whose key is a flag's name without its dashes, ``C3``, or the field name that
reports echo, ``big_c3``); the environment variable ``FASTJL_SEED`` is the
fallback seed.  Every
report embeds the fully resolved configuration so a run can be replayed
exactly.  Exit codes: 0 on success with all verdicts PASS/VACUOUS, 1 when
any check reports FAIL, 2 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench as bench_mod
from . import verify
from .errors import POSITIVE, FastJlError, ParameterError, check_real, check_size
from .instances import (
    _atomic_write_bytes,
    VectorReader,
    random_unit_vector,
    read_vectors,
    vector_writer,
)
from .rng import MAX_WORKERS, TRIAL_BLOCK, derive_seed, parallel_map, process_map, runs
from .sparsity import choose_k, q_ailon_chazelle, q_lower_threshold, q_theorem1
from .transform import JlParams, NormCriterion, PhdKernel, sample_projection, sample_signs

__all__ = ["RunConfig", "parse_config", "execute", "main"]

_SCHEDULERS = ("theorem1", "ac")
_CRITERIA = {"squared": NormCriterion.SQUARED_NORM, "norm": NormCriterion.NORM}
_REAL = ("(", -math.inf, math.inf, ")")


def _flag(flag: str, help_text: str, default=None):
    """A :class:`RunConfig` field set by ``flag``; the field's annotation is the flag's type."""
    return field(default=default, metadata={"flag": flag, "help": help_text})


@dataclass
class RunConfig:
    """Fully resolved invocation; echoed into every report.

    Every field after ``command`` is one flag, declared here once.  Its
    default is the field's, except the per-command ``trials`` defaults in
    ``_TRIALS`` and the ``seed`` and ``workers`` that :func:`parse_config`
    takes from the environment.  The field order is the echo's key order.
    """

    command: str
    in_path: str | None = _flag("--in", "input vector file (.fjlv or .csv); verify-upper: the --pairwise points")
    out_path: str | None = _flag("--out", "output path: embed's vector file (.fjlv or .csv), bench's CSV")
    report: str | None = _flag("--report", "JSON-lines report path")
    d: int | None = _flag("--d", "input dimension (power of two)")
    k: int | None = _flag("--k", "target dimension (default: derived via c_k)")
    eps: float | None = _flag("--eps", "distortion parameter")
    delta: float | None = _flag("--delta", "failure probability (delta mode)")
    n: float | None = _flag("--n", "number of points (n mode)")
    q: float | None = _flag("--q", "explicit sparsity rate (conflicts with --scheduler; "
                                   "verify-lower default: threshold / q-divisor)")
    scheduler: str | None = _flag("--scheduler", "q scheduler: theorem1 | ac")
    c_q: float = _flag("--c-q", "multiplier for the scheduled q (verify-lower: inside the lower threshold)", 1.0)
    c_k: float = _flag("--c-k", "multiplier for the derived k", 1.0)
    trials: int = _flag("--trials", "Monte Carlo trials (verify-lemmas: per grid point)", 10000)
    q_divisor: float = _flag("--q-divisor", "divisor applied to the lower threshold, > 0", 16.0)
    criterion: str = _flag("--criterion", "norm window: squared | norm", "squared")
    coord_c: float | None = _flag("--coord-c", "also run the coordinate-bound check at this c")
    pairwise: bool = _flag("--pairwise", "check all pairwise distances of --in", False)
    compare_threshold: bool = _flag("--compare-threshold", "also run the witness at the undivided threshold rate",
                                    False)
    total_mass: bool = _flag("--total-mass", "also run the total-mass deviation statistic (needs delta < 4^-4)",
                             False)
    c3: float = _flag("--c3", "assumed chi-square lower-tail constant c3", 0.1)
    big_c3: float = _flag("--C3", "assumed chi-square lower-tail constant C3", 2.0)
    methods: str = _flag("--methods", "comma-separated: Dense,FastJL_AC,FastJL_New (aliases dense,ac,new)",
                         ",".join(bench_mod.METHODS))
    reps: int = _flag("--reps", "timed repetitions per method", 9)
    seed: int = _flag("--seed", "master RNG seed (fallback: FASTJL_SEED, then 0)", 0)
    workers: int = _flag(
        "--workers",
        f"workers, 1 to {MAX_WORKERS} (default: the CPU count); forked processes for the verify "
        f"commands, each taking a contiguous run of Monte Carlo blocks of {TRIAL_BLOCK} trials ({verify._PAIRWISE_BLOCK} with "
        f"--pairwise) or a share of the verify-lemmas bound grid; threads for embed's contiguous runs of "
        f"row chunks; bench accepts and echoes it, but times one thread",
        1,
    )

    def to_dict(self) -> dict:
        """Resolved values of this command's own fields (the replayable echo)."""
        own = {f.name for f, _required in _own(self.command)}
        return {k: v for k, v in asdict(self).items() if v is not None and (k == "command" or k in own)}


# The fields each command takes, in help order; "!" marks a required one.
_COMMANDS = {
    "embed": "in_path! out_path! k c_k q scheduler c_q eps n delta seed workers",
    "verify-upper": "d! eps! k c_k q scheduler c_q n delta trials criterion in_path pairwise coord_c report! "
                    "seed workers",
    "verify-lemmas": "trials c3 big_c3 report! seed workers",
    "verify-lower": "eps! delta! d! q q_divisor c_q trials compare_threshold total_mass report! seed workers",
    "bench": "methods d! k! q eps n reps out_path! seed workers",
}
_TRIALS = {"verify-lemmas": 100000, "verify-lower": 20000}  # verify-upper's is the field's
_TYPES = {"str": str, "int": int, "float": float, "bool": bool}
_FIELD = {f.name: f for f in fields(RunConfig)}


def _own(command: str) -> list[tuple[Field, bool]]:
    """``(field, required)`` for each field that ``command`` takes."""
    return [(_FIELD[name.rstrip("!")], name.endswith("!")) for name in _COMMANDS[command].split()]


def _type(f: Field) -> type:
    return _TYPES[f.type.partition(" ")[0]]  # "float | None" -> float


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastjl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        for f, _required in _own(command):
            how = {"action": "store_const", "const": True} if _type(f) is bool else {"type": _type(f)}
            p.add_argument(f.metadata["flag"], dest=f.name, default=None, help=f.metadata["help"], **how)
    return parser


def _parse_config_file(path: str, command: str) -> dict:
    """The file's ``key=value`` lines by field name; a key is a flag without its dashes or the field's name."""
    by_key = {key: f for f, _required in _own(command) for key in (f.metadata["flag"][2:], f.name)}
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_key:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        f = by_key[key]
        try:
            if _type(f) is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(f"not a boolean: {value!r}")
                values[f.name] = value.lower() in ("true", "1")
            else:
                values[f.name] = _type(f)(value)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {f.name}: {exc}") from None
    return values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags, config file, environment, and defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    command = args.command
    own = _own(command)
    file_values = _parse_config_file(args.config, command) if args.config else {}

    resolved: dict = {"command": command}
    for f, _required in own:
        value = getattr(args, f.name)
        value = file_values.get(f.name) if value is None else value
        if value is not None:
            resolved[f.name] = value
    if command in _TRIALS:
        resolved.setdefault("trials", _TRIALS[command])
    env_seed = os.environ.get("FASTJL_SEED")
    if "seed" not in resolved and env_seed:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ParameterError(f"FASTJL_SEED must be an integer, got {env_seed!r}") from None
    if "workers" not in resolved and command != "bench":
        resolved["workers"] = min(os.cpu_count() or 1, MAX_WORKERS)
    config = RunConfig(**resolved)
    check_real("--workers", config.workers, ("[", 1, MAX_WORKERS, "]"))  # an int already: argparse or int()

    for f, required in own:
        if required and getattr(config, f.name) is None:
            raise ParameterError(f"{command}: missing required parameter {f.metadata['flag']}")
    if config.q is not None and config.scheduler is not None:
        raise ParameterError(f"{command}: conflicting options --q and --scheduler")
    if config.n is not None and config.delta is not None:
        raise ParameterError(f"{command}: conflicting options --n and --delta")
    if config.scheduler not in (None, *_SCHEDULERS):
        raise ParameterError(f"{command}: unknown scheduler {config.scheduler!r}")
    if config.criterion not in _CRITERIA:
        raise ParameterError(f"{command}: unknown criterion {config.criterion!r}")
    for f, _required in own:
        value = getattr(config, f.name)
        if _type(f) is float and value is not None:
            check_real(f.metadata["flag"], value, POSITIVE if f.name in ("c3", "big_c3", "q_divisor") else _REAL)

    _validate_paths(config)
    return config


def _validate_paths(config: RunConfig) -> None:
    if config.in_path is not None and not Path(config.in_path).is_file():
        raise ParameterError(f"input path does not exist: {config.in_path}")
    for out in (config.out_path, config.report):
        if out is not None:
            parent = Path(out).parent
            if not (parent == Path("") or parent.is_dir()):
                raise ParameterError(f"output directory does not exist: {parent}")


# --------------------------------------------------------------------------
# execution


def _write_jsonl(path: str, records: list[dict]) -> None:
    _atomic_write_bytes(Path(path), "".join(json.dumps(r) + "\n" for r in records).encode())


def _resolve_q(config: RunConfig, d: int) -> float:
    if config.q is not None:
        return config.q
    if config.scheduler is None:
        raise ParameterError(f"{config.command}: needs --q or --scheduler")
    if config.scheduler == "ac":
        if config.n is None:
            raise ParameterError("scheduler ac: missing required parameter --n")
        return q_ailon_chazelle(config.n, d, config.c_q)
    if config.eps is None or config.n is None:
        raise ParameterError("scheduler theorem1: missing required parameter --eps/--n")
    return q_theorem1(config.eps, config.n, d, config.c_q)


def _resolve_k(config: RunConfig) -> int:
    if config.k is not None:
        return config.k
    if config.eps is None or (config.n is None and config.delta is None):
        raise ParameterError(f"{config.command}: needs --k, or --eps with --n/--delta to derive it")
    return choose_k(config.eps, n=config.n, delta=config.delta, c_k=config.c_k)


def _run_embed(config: RunConfig) -> int:
    """Embed the input file with one shared ``(D, P)`` into the output file.

    The rows go in kernel chunks of ``kernel.step`` rows counted from row 0,
    so the output bytes are those of one :meth:`PhdKernel.apply` on all rows.
    The chunks are cut into :func:`.rng.runs`, one ``.csv`` output being
    one run as its text is only appended.  A run, the first on the calling
    thread, reads, checks, embeds and writes its own chunks through its own
    two buffers.  :func:`parallel_map` raises the earliest run's error only
    once every run has returned, so it names the file's first bad row and
    no run writes to the output after it is closed.
    """
    with VectorReader(config.in_path) as reader:
        d = 1 << (reader.d - 1).bit_length()  # zero-padded to a power of two inside the kernel
        q = _resolve_q(config, d)
        k = _resolve_k(config)
        check_size("k", k, (1, d))
        diag = sample_signs(d, config.seed)
        proj = sample_projection(k, d, q, config.seed)
        kernel = PhdKernel(diag.signs, proj.indptr, proj.cols, proj.weights, k, reader.count)
        step, count = kernel.step, reader.count
        parts = runs(-(-count // step), 1 if config.out_path.endswith(".csv") else config.workers)
        # made here, so the memory held is that of every run at once, however the runs overlap
        jobs = [(part, np.empty((min(step, count), reader.d)), np.empty((min(step, count), k))) for part in parts]

        def run(job: tuple) -> None:
            chunks, X, Y = job
            for first in range(chunks.start * step, min(chunks.stop * step, count), step):
                rows = min(step, count - first)
                kernel.apply_chunk(reader.read_rows(first, X[:rows]), Y[:rows])
                write(first, Y[:rows])

        with vector_writer(config.out_path, k, count) as write:
            parallel_map(run, jobs, config.workers)
    print(
        f"embed: {reader.count} vectors, d={d} -> k={k}, q={q!r}, nnz={proj.nnz}, "
        f"seed={config.seed} -> {config.out_path}"
    )
    return 0


def _recorder(config: RunConfig) -> Callable[..., dict]:
    """``record(experiment, params, t0=None, **fields)``: :func:`verify.make_record` for this run.

    The record's ``params`` end with the config echo, and a given ``t0``
    (a ``perf_counter`` reading) adds the milliseconds since as ``wall_time_ms``.
    """
    echo = config.to_dict()

    def record(experiment: str, params: dict, t0: float | None = None, **fields) -> dict:
        wall_time_ms = None if t0 is None else (time.perf_counter() - t0) * 1e3
        return verify.make_record(experiment, params={**params, "config": echo}, wall_time_ms=wall_time_ms,
                                  **fields)

    return record


def _run_verify_upper(config: RunConfig) -> int:
    d, eps = config.d, config.eps
    q = _resolve_q(config, d)
    k = _resolve_k(config)
    params = JlParams(d=d, k=k, eps=eps, q=q, seed=derive_seed(config.seed, 0),
                      norm_criterion=_CRITERIA[config.criterion])
    record = _recorder(config)

    t0 = time.perf_counter()
    if config.pairwise:
        if config.in_path is None:
            raise ParameterError("verify-upper: --pairwise needs --in")
        points = read_vectors(config.in_path)
        padded = 1 << (points.shape[1] - 1).bit_length()  # zero-padded inside the kernel, as in embed
        if padded != d:
            raise ParameterError(f"--d {d} disagrees with padded input dimension {padded}")
        estimate = verify.estimate_failure_rate(params, points, config.trials,
                                                pairwise=True, workers=config.workers)
        experiment = "pairwise_failure_rate"
    else:
        x = random_unit_vector(d, derive_seed(config.seed, 1))
        estimate = verify.estimate_failure_rate(params, x, config.trials, workers=config.workers)
        experiment = "failure_rate"
    records = [record(experiment, {"d": d, "k": k, "eps": eps, "q": q, "c_q": config.c_q, "c_k": config.c_k,
                                   "criterion": config.criterion}, t0, estimate=estimate, seed=params.seed)]

    if config.coord_c is not None:
        if config.n is None:
            raise ParameterError("verify-upper: --coord-c needs --n")
        t0 = time.perf_counter()
        x = random_unit_vector(d, derive_seed(config.seed, 1))
        estimate = verify.coord_exceedance_rate(x, config.coord_c, config.n, config.trials,
                                                derive_seed(config.seed, 2), workers=config.workers)
        records.append(record("coord_exceedance", {"d": d, "threshold_c": config.coord_c, "n": config.n}, t0,
                              estimate=estimate, seed=derive_seed(config.seed, 2)))

    _write_jsonl(config.report, records)
    print(f"verify-upper: p_hat={records[0]['p_hat']:.6g} over {config.trials} trials -> {config.report}")
    return 0


def _run_verify_lemmas(config: RunConfig) -> int:
    """Write the lemma report; exit 1 when a check reports FAIL.

    The bound-grid points are the unit of parallel work: worker ``r`` of
    ``w`` takes the points ``r, r + w, ...`` in its own process
    (:func:`process_map`), so costly neighbours spread out, and draws each
    point's trials there (``workers=1``), so each point's ``wall_time_ms`` is
    its own.  A point's counts depend only on its seed,
    ``derive_seed(seed, 0, index)``, and the records go back into grid order,
    so the report is the same at every ``--workers``.  After the grid, the
    MGF estimate splits its trial blocks over the workers; the chi-square
    checks are too short to pay for a fork.
    """
    record = _recorder(config)

    def bound_record(point: tuple[int, verify.BoundSpec]) -> dict:
        index, spec = point
        seed = derive_seed(config.seed, 0, index)
        t0 = time.perf_counter()
        check = verify.run_bound_check(spec, config.trials, seed)
        return record(f"lemma_bound:{spec.lemma.value}",
                      {**{k: float(v) for k, v in spec.params.items()}, "event": spec.event_description()}, t0,
                      estimate=check.estimate, bound=check.bound, verdict=check.verdict, seed=seed)

    points = list(enumerate(verify.default_bound_grid()))
    w = min(config.workers, len(points))
    shares = process_map(lambda r: [bound_record(point) for point in points[r::w]], range(w), config.workers)
    records = [shares[i % w][i // w] for i in range(len(points))]

    for index, (r, q, alpha) in enumerate(verify.reverse_chernoff_grid()):
        t0 = time.perf_counter()
        check = verify.reverse_chernoff_check(r, q, alpha)
        records.append(record("reverse_chernoff", {"r": r, "q": q, "alpha": alpha, "threshold": check.threshold},
                              t0, exact=check.exact, bound=check.bound, verdict=check.verdict))

    for x in verify.gaussian_square_grid():
        check = verify.gaussian_square_tail_check(x)
        records.append(record("gaussian_square_tail", {"x": x},
                              exact=check.exact, bound=check.bound, verdict=check.verdict))

    t0 = time.perf_counter()
    grid = verify.elementary_grid()
    bad = grid[~verify.elementary_ineq_holds(*grid.T)].tolist()
    records.append(record("elementary_inequality_grid", {"points": len(grid)}, t0,
                          verdict=verify.Verdict.PASS if not bad else verify.Verdict.FAIL,
                          extra={"violations": bad[:16]}))

    for index, (weights, x) in enumerate([((1.0,), 0.0), ((1.0, 1.0, 1.0, 1.0), 0.0), ((1.0,), 1.0)]):
        seed = derive_seed(config.seed, 1, index)
        t0 = time.perf_counter()
        # one worker: a fork costs some 5 ms, and these checks draw for about 1 ms at 10^4 trials
        check = verify.chisq_lower_tail_check(weights, x, config.trials, config.c3, config.big_c3, seed)
        records.append(record("chisq_lower_tail", {"weights": list(weights), "x": x, "c3": config.c3,
                                                   "C3": config.big_c3, "constants_assumed": True}, t0,
                              estimate=check.estimate, bound=check.bound, verdict=check.verdict, seed=seed))

    seed = derive_seed(config.seed, 2)
    t0 = time.perf_counter()
    mgf = verify.mgf_premise_estimate(max(config.trials, 10**6), seed, workers=config.workers)
    records.append(record("subexponential_mgf_premise", {"rate": verify.MGF_RATE, "target": mgf.target}, t0,
                          verdict=mgf.verdict, seed=seed,
                          extra={"mean": mgf.mean, "stderr": mgf.stderr, "trials": mgf.trials}))

    _write_jsonl(config.report, records)
    n_fail = sum(1 for r in records if r.get("verdict") == "FAIL")
    print(f"verify-lemmas: {len(records)} records, {n_fail} FAIL -> {config.report}")
    return 1 if n_fail else 0


def _run_verify_lower(config: RunConfig) -> int:
    eps, delta, d = config.eps, config.delta, config.d
    threshold_q = q_lower_threshold(eps, delta, d, config.c_q)
    q = config.q if config.q is not None else threshold_q / config.q_divisor
    record = _recorder(config)

    def witness_record(rate: float, tag: int) -> dict:
        seed = derive_seed(config.seed, tag)
        t0 = time.perf_counter()
        report = verify.lower_bound_witness(eps, delta, d, rate, config.trials, seed,
                                            workers=config.workers)
        return record(
            "lower_bound_witness",
            {"eps": eps, "delta": delta, "d": d, "q": rate, "k": report.k, "m": report.m,
             "level": report.level, "c_q": config.c_q},
            t0,
            estimate=report.estimate,
            seed=seed,
            extra={
                "mechanism_fraction_dominant": report.mechanism_fraction(dominant=True),
                "mechanism_fraction_first": report.mechanism_fraction(dominant=False),
                "mean_first_term": float(report.first_term.mean()),
                "mean_rest_sum": float(report.rest_sum.mean()),
            },
        )

    records = [witness_record(q, 0)]
    if config.compare_threshold:
        records.append(witness_record(threshold_q, 1))
        gap = records[0]["p_hat"] / max(records[1]["p_hat"], 1e-12)
        records[0]["failure_gap_vs_threshold"] = gap

    if config.total_mass:
        seed = derive_seed(config.seed, 2)
        t0 = time.perf_counter()
        result = verify.total_mass_statistic(eps, delta, d, q, config.trials, seed,
                                              workers=config.workers)
        records.append(record("total_mass_deviation",
                              {"eps": eps, "delta": delta, "d": d, "q": q, "threshold": result.threshold}, t0,
                              estimate=result.estimate, seed=seed,
                              extra={"mean": float(result.samples.mean()),
                                     "variance": float(result.samples.var(ddof=1))}))

    _write_jsonl(config.report, records)
    print(
        f"verify-lower: q={q!r} failure p_hat={records[0]['p_hat']:.4f} "
        f"(threshold rate {threshold_q!r}) -> {config.report}"
    )
    return 0  # an expected-failure demonstration, not a check failure


_METHOD_ALIASES = {
    "dense": bench_mod.METHOD_DENSE,
    "ac": bench_mod.METHOD_FASTJL_AC,
    "new": bench_mod.METHOD_FASTJL_NEW,
}


def _run_bench(config: RunConfig) -> int:
    methods = []
    for token in config.methods.split(","):
        token = token.strip()
        name = _METHOD_ALIASES.get(token.lower(), token)
        if name not in bench_mod.METHODS:
            raise ParameterError(f"bench: unknown method {token!r}")
        methods.append(name)
    configs = [
        bench_mod.BenchConfig(method=m, d=config.d, k=config.k, q=config.q,
                              eps=config.eps, n=config.n)
        for m in methods
    ]
    records = bench_mod.run_bench(configs, config.reps, config.seed)
    echo = json.dumps(config.to_dict())
    _atomic_write_bytes(Path(config.out_path), bench_mod.records_to_csv(records, config_echo=echo).encode())
    print(f"bench: {len(records)} configurations -> {config.out_path}")
    return 0


def execute(config: RunConfig) -> int:
    """Run a resolved configuration; returns the process exit code."""
    runner = {
        "embed": _run_embed,
        "verify-upper": _run_verify_upper,
        "verify-lemmas": _run_verify_lemmas,
        "verify-lower": _run_verify_lower,
        "bench": _run_bench,
    }[config.command]
    return runner(config)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:  # argparse prints its own message
        return exc.code if isinstance(exc.code, int) else 2
    except (FastJlError, OSError) as exc:  # OSError: an unreadable --config file
        print(f"fastjl: error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(config)
    except (FastJlError, OSError) as exc:
        print(f"fastjl: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation larger than the machine allows
        print(f"fastjl: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
