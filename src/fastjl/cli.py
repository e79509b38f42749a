"""Command-line surface: embed datasets, run verification suites, benchmark.

Subcommands
-----------
embed         embed a vector file (one shared (D, P) draw for the whole set)
verify-upper  distortion failure rates on a unit vector or a point set
verify-lemmas analytic bound grids, exact oracles, and premise checks
verify-lower  the hard-instance witness (an expected-failure demonstration)
bench         apply-path timings for Dense / FastJL_AC / FastJL_New

Flags override config-file values (``--config``, flat ``key=value`` lines);
the environment variable ``FASTJL_SEED`` is the fallback seed.  Every
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
from dataclasses import asdict, dataclass
from pathlib import Path

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
from .rng import MAX_WORKERS, TRIAL_BLOCK, derive_seed, parallel_map
from .sparsity import choose_k, q_ailon_chazelle, q_lower_threshold, q_theorem1
from .transform import JlParams, NormCriterion, PhdKernel, sample_projection, sample_signs

__all__ = ["RunConfig", "parse_config", "execute", "main"]

_SCHEDULERS = ("theorem1", "ac")
_CRITERIA = {"squared": NormCriterion.SQUARED_NORM, "norm": NormCriterion.NORM}
_REAL = ("(", -math.inf, math.inf, ")")


@dataclass
class RunConfig:
    """Fully resolved invocation; echoed into every report."""

    command: str
    in_path: str | None = None
    out_path: str | None = None
    report: str | None = None
    d: int | None = None
    k: int | None = None
    eps: float | None = None
    delta: float | None = None
    n: float | None = None
    q: float | None = None
    scheduler: str | None = None
    c_q: float = 1.0
    c_k: float = 1.0
    trials: int = 10000
    q_divisor: float = 16.0
    criterion: str = "squared"
    coord_c: float | None = None
    pairwise: bool = False
    compare_threshold: bool = False
    total_mass: bool = False
    c3: float = 0.1
    big_c3: float = 2.0
    methods: str = ",".join(bench_mod.METHODS)
    reps: int = 9
    seed: int = 0
    workers: int = 1

    def to_dict(self) -> dict:
        """Resolved values of this command's own fields (the replayable echo)."""
        own = {dest for dest, *_ in _FIELDS[self.command]}
        return {
            k: v
            for k, v in asdict(self).items()
            if v is not None and (k == "command" or k in own)
        }


# (dest, flag, type, default, help); defaults live here so that the
# flag > config-file > default precedence can be applied uniformly.
_COMMON = [
    ("seed", "--seed", int, None, "master RNG seed (fallback: FASTJL_SEED, then 0)"),
    ("workers", "--workers", int, None,
     f"worker threads, 1 to {MAX_WORKERS}; a unit of work is a verify-lemmas bound-grid point, a "
     f"contiguous run of Monte Carlo blocks of {TRIAL_BLOCK} trials, one pairwise trial's verdict "
     f"when the run is one block, or a contiguous run of embed row chunks"),
]

_FIELDS: dict[str, list[tuple]] = {
    "embed": [
        ("in_path", "--in", str, None, "input vector file (.fjlv or .csv)"),
        ("out_path", "--out", str, None, "output vector file (.fjlv or .csv)"),
        ("k", "--k", int, None, "target dimension (default: derived via c_k)"),
        ("c_k", "--c-k", float, 1.0, "multiplier for the derived k"),
        ("q", "--q", float, None, "explicit sparsity rate (conflicts with --scheduler)"),
        ("scheduler", "--scheduler", str, None, "q scheduler: theorem1 | ac"),
        ("c_q", "--c-q", float, 1.0, "multiplier for the scheduled q"),
        ("eps", "--eps", float, None, "distortion parameter"),
        ("n", "--n", float, None, "number of points (n mode)"),
        ("delta", "--delta", float, None, "failure probability (delta mode)"),
        *_COMMON,
    ],
    "verify-upper": [
        ("d", "--d", int, None, "input dimension (power of two)"),
        ("eps", "--eps", float, None, "distortion parameter"),
        ("k", "--k", int, None, "target dimension (default: derived via c_k)"),
        ("c_k", "--c-k", float, 1.0, "multiplier for the derived k"),
        ("q", "--q", float, None, "explicit sparsity rate (conflicts with --scheduler)"),
        ("scheduler", "--scheduler", str, None, "q scheduler: theorem1 | ac"),
        ("c_q", "--c-q", float, 1.0, "multiplier for the scheduled q"),
        ("n", "--n", float, None, "number of points (n mode)"),
        ("delta", "--delta", float, None, "failure probability (delta mode)"),
        ("trials", "--trials", int, 10000, "Monte Carlo trials"),
        ("criterion", "--criterion", str, "squared", "norm window: squared | norm"),
        ("in_path", "--in", str, None, "point set for pairwise mode"),
        ("pairwise", "--pairwise", bool, False, "check all pairwise distances of --in"),
        ("coord_c", "--coord-c", float, None, "also run the coordinate-bound check at this c"),
        ("report", "--report", str, None, "JSON-lines report path"),
        *_COMMON,
    ],
    "verify-lemmas": [
        ("trials", "--trials", int, 100000, "Monte Carlo trials per grid point"),
        ("c3", "--c3", float, 0.1, "assumed chi-square lower-tail constant c3"),
        ("big_c3", "--C3", float, 2.0, "assumed chi-square lower-tail constant C3"),
        ("report", "--report", str, None, "JSON-lines report path"),
        *_COMMON,
    ],
    "verify-lower": [
        ("eps", "--eps", float, None, "distortion parameter"),
        ("delta", "--delta", float, None, "failure probability"),
        ("d", "--d", int, None, "input dimension (power of two)"),
        ("q", "--q", float, None, "explicit witness rate (default: threshold / q-divisor)"),
        ("q_divisor", "--q-divisor", float, 16.0, "divisor applied to the lower threshold"),
        ("c_q", "--c-q", float, 1.0, "multiplier inside the lower threshold"),
        ("trials", "--trials", int, 20000, "Monte Carlo trials"),
        ("compare_threshold", "--compare-threshold", bool, False,
         "also run the witness at the undivided threshold rate"),
        ("total_mass", "--total-mass", bool, False,
         "also run the total-mass deviation statistic (needs delta < 4^-4)"),
        ("report", "--report", str, None, "JSON-lines report path"),
        *_COMMON,
    ],
    "bench": [
        ("methods", "--methods", str, ",".join(bench_mod.METHODS),
         "comma-separated: Dense,FastJL_AC,FastJL_New (aliases dense,ac,new)"),
        ("d", "--d", int, None, "input dimension (power of two)"),
        ("k", "--k", int, None, "target dimension"),
        ("q", "--q", float, None, "explicit sparsity rate for both FastJL methods"),
        ("eps", "--eps", float, None, "distortion parameter for the scheduled q"),
        ("n", "--n", float, None, "number of points for the scheduled q"),
        ("reps", "--reps", int, 9, "timed repetitions per method"),
        ("out_path", "--out", str, None, "CSV output path"),
        _COMMON[0],
        ("workers", "--workers", int, None, "accepted and echoed, but ignored: bench times one thread"),
    ],
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "embed": ("in_path", "out_path"),
    "verify-upper": ("d", "eps", "report"),
    "verify-lemmas": ("report",),
    "verify-lower": ("eps", "delta", "d", "report"),
    "bench": ("d", "k", "out_path"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastjl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, specs in _FIELDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        for dest, flag, typ, _default, help_text in specs:
            if typ is bool:
                p.add_argument(flag, dest=dest, action="store_const", const=True,
                               default=None, help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    return parser


_CONFIG_KEY_ALIASES = {"in": "in_path", "out": "out_path"}


def _parse_config_file(path: str, specs: list[tuple]) -> dict:
    by_key = {dest: typ for dest, _flag, typ, _default, _help in specs}
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        key = _CONFIG_KEY_ALIASES.get(key, key)
        value = value.strip()
        if key not in by_key:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = by_key[key]
        try:
            if typ is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(f"not a boolean: {value!r}")
                values[key] = value.lower() in ("true", "1")
            else:
                values[key] = typ(value)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags, config file, environment, and defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    command = args.command
    specs = _FIELDS[command]
    file_values = _parse_config_file(args.config, specs) if args.config else {}

    resolved: dict = {"command": command}
    for dest, _flag, _typ, default, _help in specs:
        flag_value = getattr(args, dest)
        if flag_value is not None:
            resolved[dest] = flag_value
        elif dest in file_values:
            resolved[dest] = file_values[dest]
        elif default is not None:
            resolved[dest] = default

    if "seed" not in resolved:
        env_seed = os.environ.get("FASTJL_SEED")
        try:
            resolved["seed"] = int(env_seed) if env_seed else 0
        except ValueError:
            raise ParameterError(f"FASTJL_SEED must be an integer, got {env_seed!r}") from None
    if "workers" not in resolved:
        resolved["workers"] = 1 if command == "bench" else min(os.cpu_count() or 1, MAX_WORKERS)
    check_real("--workers", resolved["workers"], ("[", 1, MAX_WORKERS, "]"))  # an int already: argparse or int()

    for name in _REQUIRED[command]:
        if resolved.get(name) is None:
            flag = next(f for d, f, *_ in specs if d == name)
            raise ParameterError(f"{command}: missing required parameter {flag}")
    if resolved.get("q") is not None and resolved.get("scheduler") is not None:
        raise ParameterError(f"{command}: conflicting options --q and --scheduler")
    if resolved.get("n") is not None and resolved.get("delta") is not None:
        raise ParameterError(f"{command}: conflicting options --n and --delta")
    if resolved.get("scheduler") not in (None, *_SCHEDULERS):
        raise ParameterError(f"{command}: unknown scheduler {resolved['scheduler']!r}")
    if resolved.get("criterion") not in (None, *_CRITERIA):
        raise ParameterError(f"{command}: unknown criterion {resolved['criterion']!r}")
    for dest, flag, typ, *_ in specs:
        if typ is float and dest in resolved:
            check_real(flag, resolved[dest], POSITIVE if dest in ("c3", "big_c3") else _REAL)

    config = RunConfig(**resolved)
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
    The chunks are cut into ``min(workers, chunks)`` contiguous runs, one
    ``.csv`` output being one run as its text is only appended.  A run is one
    pool task that reads, checks, embeds and writes its own chunks through its
    own two buffers.  A run that fails stops the runs after it; the earliest
    run's error is raised only once every run has returned, so it names the
    file's first bad row and no run writes to the output after it is closed.
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
        chunks = -(-count // step)
        runs = 1 if config.out_path.endswith(".csv") else max(1, min(config.workers, chunks))
        errors: list[BaseException | None] = [None] * runs
        # made here, so the memory held is that of every run at once, however the runs overlap
        buffers = [(np.empty((min(step, count), reader.d)), np.empty((min(step, count), k))) for _ in range(runs)]

        def run(r: int) -> None:
            lo, hi = r * chunks // runs * step, min((r + 1) * chunks // runs * step, count)
            X, Y = buffers[r]
            try:
                for first in range(lo, hi, step):
                    if any(errors[:r]):  # an earlier run failed: its error is the one reported
                        return
                    rows = min(step, hi - first)
                    kernel.apply_chunk(reader.read_rows(first, X[:rows]), Y[:rows])
                    write(first, Y[:rows])
            except BaseException as exc:  # raised below, once every run has returned
                errors[r] = exc

        with vector_writer(config.out_path, k, count) as write:
            parallel_map(run, range(runs), config.workers)
            for exc in errors:
                if exc is not None:
                    raise exc
    print(
        f"embed: {reader.count} vectors, d={d} -> k={k}, q={q!r}, nnz={proj.nnz}, "
        f"seed={config.seed} -> {config.out_path}"
    )
    return 0


def _run_verify_upper(config: RunConfig) -> int:
    d, eps = config.d, config.eps
    q = _resolve_q(config, d)
    k = _resolve_k(config)
    params = JlParams(d=d, k=k, eps=eps, q=q, seed=derive_seed(config.seed, 0),
                      norm_criterion=_CRITERIA[config.criterion])
    echo = config.to_dict()
    records = []

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
    records.append(
        verify.make_record(
            experiment,
            params={"d": d, "k": k, "eps": eps, "q": q, "c_q": config.c_q, "c_k": config.c_k,
                    "criterion": config.criterion, "config": echo},
            estimate=estimate,
            seed=params.seed,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
        )
    )

    if config.coord_c is not None:
        if config.n is None:
            raise ParameterError("verify-upper: --coord-c needs --n")
        t0 = time.perf_counter()
        x = random_unit_vector(d, derive_seed(config.seed, 1))
        estimate = verify.coord_exceedance_rate(x, config.coord_c, config.n, config.trials,
                                                derive_seed(config.seed, 2), workers=config.workers)
        records.append(
            verify.make_record(
                "coord_exceedance",
                params={"d": d, "threshold_c": config.coord_c, "n": config.n, "config": echo},
                estimate=estimate,
                seed=derive_seed(config.seed, 2),
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    _write_jsonl(config.report, records)
    print(f"verify-upper: p_hat={records[0]['p_hat']:.6g} over {config.trials} trials -> {config.report}")
    return 0


def _run_verify_lemmas(config: RunConfig) -> int:
    """Write the lemma report; exit 1 when a check reports FAIL.

    The bound-grid points are the unit of parallel work: they go over the
    pool, one task each, and every point draws its trials on its own thread
    (``workers=1``), so each point's ``wall_time_ms`` is its own.  A point's
    counts depend only on its seed, ``derive_seed(seed, 0, index)``, and the
    records keep grid order, so the report is the same at every ``--workers``.
    The Monte Carlo checks after the grid split their trial blocks over the
    workers instead.
    """
    echo = config.to_dict()

    def bound_record(point: tuple[int, verify.BoundSpec]) -> dict:
        index, spec = point
        seed = derive_seed(config.seed, 0, index)
        t0 = time.perf_counter()
        check = verify.run_bound_check(spec, config.trials, seed)
        return verify.make_record(
            f"lemma_bound:{spec.lemma.value}",
            params={**{k: float(v) for k, v in spec.params.items()},
                    "event": spec.event_description(), "config": echo},
            estimate=check.estimate,
            bound=check.bound,
            verdict=check.verdict,
            seed=seed,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
        )

    records = parallel_map(bound_record, list(enumerate(verify.default_bound_grid())), config.workers)

    for index, (r, q, alpha) in enumerate(verify.reverse_chernoff_grid()):
        t0 = time.perf_counter()
        check = verify.reverse_chernoff_check(r, q, alpha)
        records.append(
            verify.make_record(
                "reverse_chernoff",
                params={"r": r, "q": q, "alpha": alpha, "threshold": check.threshold, "config": echo},
                exact=check.exact,
                bound=check.bound,
                verdict=check.verdict,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    for x in verify.gaussian_square_grid():
        check = verify.gaussian_square_tail_check(x)
        records.append(
            verify.make_record(
                "gaussian_square_tail",
                params={"x": x, "config": echo},
                exact=check.exact, bound=check.bound, verdict=check.verdict,
            )
        )

    t0 = time.perf_counter()
    grid = verify.elementary_grid()
    bad = grid[~verify.elementary_ineq_holds(*grid.T)].tolist()
    records.append(
        verify.make_record(
            "elementary_inequality_grid",
            params={"points": len(grid), "config": echo},
            verdict=verify.Verdict.PASS if not bad else verify.Verdict.FAIL,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            extra={"violations": bad[:16]},
        )
    )

    for index, (weights, x) in enumerate([((1.0,), 0.0), ((1.0, 1.0, 1.0, 1.0), 0.0), ((1.0,), 1.0)]):
        seed = derive_seed(config.seed, 1, index)
        t0 = time.perf_counter()
        check = verify.chisq_lower_tail_check(weights, x, config.trials, config.c3,
                                              config.big_c3, seed, workers=config.workers)
        records.append(
            verify.make_record(
                "chisq_lower_tail",
                params={"weights": list(weights), "x": x, "c3": config.c3, "C3": config.big_c3,
                        "constants_assumed": True, "config": echo},
                estimate=check.estimate,
                bound=check.bound,
                verdict=check.verdict,
                seed=seed,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    seed = derive_seed(config.seed, 2)
    t0 = time.perf_counter()
    mgf = verify.mgf_premise_estimate(max(config.trials, 10**6), seed, workers=config.workers)
    records.append(
        verify.make_record(
            "subexponential_mgf_premise",
            params={"rate": verify.MGF_RATE, "target": mgf.target, "config": echo},
            verdict=mgf.verdict,
            seed=seed,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            extra={"mean": mgf.mean, "stderr": mgf.stderr, "trials": mgf.trials},
        )
    )

    _write_jsonl(config.report, records)
    n_fail = sum(1 for r in records if r.get("verdict") == "FAIL")
    print(f"verify-lemmas: {len(records)} records, {n_fail} FAIL -> {config.report}")
    return 1 if n_fail else 0


def _run_verify_lower(config: RunConfig) -> int:
    eps, delta, d = config.eps, config.delta, config.d
    threshold_q = q_lower_threshold(eps, delta, d, config.c_q)
    q = config.q if config.q is not None else threshold_q / config.q_divisor
    echo = config.to_dict()
    records = []

    def witness_record(rate: float, tag: int) -> dict:
        seed = derive_seed(config.seed, tag)
        t0 = time.perf_counter()
        report = verify.lower_bound_witness(eps, delta, d, rate, config.trials, seed,
                                            workers=config.workers)
        return verify.make_record(
            "lower_bound_witness",
            params={"eps": eps, "delta": delta, "d": d, "q": rate, "k": report.k,
                    "m": report.m, "level": report.level, "c_q": config.c_q, "config": echo},
            estimate=report.estimate,
            seed=seed,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            extra={
                "mechanism_fraction_dominant": report.mechanism_fraction(dominant=True),
                "mechanism_fraction_first": report.mechanism_fraction(dominant=False),
                "mean_first_term": float(report.first_term.mean()),
                "mean_rest_sum": float(report.rest_sum.mean()),
            },
        )

    records.append(witness_record(q, 0))
    if config.compare_threshold:
        records.append(witness_record(threshold_q, 1))
        gap = records[0]["p_hat"] / max(records[1]["p_hat"], 1e-12)
        records[0]["failure_gap_vs_threshold"] = gap

    if config.total_mass:
        seed = derive_seed(config.seed, 2)
        t0 = time.perf_counter()
        result = verify.total_mass_statistic(eps, delta, d, q, config.trials, seed,
                                              workers=config.workers)
        records.append(
            verify.make_record(
                "total_mass_deviation",
                params={"eps": eps, "delta": delta, "d": d, "q": q,
                        "threshold": result.threshold, "config": echo},
                estimate=result.estimate,
                seed=seed,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
                extra={"mean": float(result.samples.mean()),
                       "variance": float(result.samples.var(ddof=1))},
            )
        )

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
