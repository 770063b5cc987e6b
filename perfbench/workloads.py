"""The three benchmark workloads.

Load model for all three: a closed loop with one client in one process;
``cold-cli`` runs one ``python`` child at a time.  Each workload builds its
inputs from the seed in ``setup``; volfit sees only CSV text and a
``PipelineConfig``.

* ``fit-batch``: one op is ``cli.run_pipeline`` plus the ``volfit fit``
  documents, for ols, lar and bisquare in turn, on one generated series
  of bundled length.  The ``surface`` fits are most of it; decomposition
  and the artifact writers are nearly absent.
* ``render``: one op is (a) the ``volfit decompose`` path on a long series
  (parse, returns, KZ, CSV writer) and (b) ``export_plot_data`` for four
  models fitted in set-up plus a batch of ``model_from_document`` +
  ``evaluate_surface`` predictions.  The read/evaluate side of ``surface``
  and the ingest/decompose/writer layers; no fitting in the timed loop.
* ``cold-cli``: one op is a round of fresh processes, ``import volfit``
  and the five subcommands on the bundled data.  The only workload where
  the import is paid per op.  Not gated by ``BENCHMARK.json`` (see
  ``run.py``); traced runs of the other two run its rounds for the cold
  per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
from volfit import cli
from volfit import evaluate as ev
from volfit import surface as sf
from volfit.ingest import PipelineConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED = ROOT / "data" / "synthetic_vix.csv"


@dataclass
class Measured:
    """What one timed loop saw: per-op times, rows and outcomes."""

    op_s: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    commands: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def fit_artifacts(results) -> dict:
    """The nine ``volfit fit`` documents for one ``run_pipeline`` result."""
    artifacts = {}
    for name in sf.SERIES_NAMES:
        artifacts[f"model_{name}.json"] = sf.model_to_document(results[name]["model"])
        artifacts[f"report_{name}.json"] = ev.report_to_document(results[name]["report"])
    models = {name: results[name]["model"] for name in sf.SERIES_NAMES}
    artifacts["coefficients.csv"] = ev.coefficient_table_csv(models)
    return artifacts


def plot_artifacts(models, tables, grid: int) -> dict:
    """The ``volfit export-plot`` files for fitted models and their tables."""
    files = {}
    for name in sf.SERIES_NAMES:
        surface, residuals = cli.export_plot_data(models[name], tables[name], grid)
        files[f"surface_{name}.csv"] = surface
        files[f"residuals_{name}.csv"] = residuals
    return files


def fitted(results):
    """(models, kept training tables) by series name."""
    return ({name: r["model"] for name, r in results.items()},
            {name: r["train"] for name, r in results.items()})


class InProcess:
    """A workload whose ops are calls into volfit in this process.

    Op i runs on input i of the workload's generated stream, so every op
    sees a fresh series and a run covers the stratified property ranges.
    """

    name = ""
    LENGTH = (gen.BUNDLED_LENGTH, gen.BUNDLED_LENGTH)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.props: dict[int, gen.SeriesProps] = {}

    def setup(self) -> None:
        """Workload state, then one untimed op to fill caches."""
        self.prepare()
        inputs = self.make_input(0)
        self.check(0, inputs, self.op(inputs))

    def warm(self) -> None:
        """Untimed warm-up outside set-up; in-process workloads need none."""

    def make_input(self, i: int):
        """What op i runs on, built outside the timed region."""
        raw, self.props[i] = gen.series(self.seed, self.name, i, self.LENGTH)
        return raw

    def loop(self, seconds: float, tracer=None, start: int = 0) -> Measured:
        """Closed loop: the next op starts when the previous one is checked."""
        m = Measured()
        deadline = time.perf_counter() + seconds
        i = start
        while time.perf_counter() < deadline:
            inputs = self.make_input(i)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = self.op(inputs)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"op {i}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            if error is None:
                try:
                    self.check(i, inputs, out)
                except Exception as exc:
                    error = f"op {i} check: {type(exc).__name__}: {exc}"
            m.attempted += 1
            if error is not None:
                m.fail(error)
            m.op_s.append(elapsed)
            m.rows.append(self.props[i].n_prices)
            m.ok.append(error is None)
            i += 1
        return m

    def info(self) -> dict:
        return {"inputs": [asdict(self.props[i]) for i in sorted(self.props)]}


class FitBatch(InProcess):
    name = "fit-batch"

    def prepare(self) -> None:
        self.configs = {m: PipelineConfig(fit_method=m) for m in sf.FIT_METHODS}

    def op(self, raw: str):
        out = {}
        for method, config in self.configs.items():
            dec, results = cli.run_pipeline(raw, config)
            out[method] = (dec, results, fit_artifacts(results))
        return out

    def check(self, i: int, raw: str, out) -> None:
        for dec, results, artifacts in out.values():
            checks.decomposition_identity(dec)
            for name, r in results.items():
                checks.model_round_trip(r["model"], artifacts[f"model_{name}.json"])
                checks.report_round_trip(r["report"], artifacts[f"report_{name}.json"])
        for r in out["lar"][1].values():
            checks.lar_not_worse(r["model"], r["train"])


class Render(InProcess):
    name = "render"
    LENGTH = (7200, 8800)
    GRID = 30
    PREDICTIONS = 1000

    def prepare(self) -> None:
        """Fit the four surfaces that every op renders and predicts from."""
        self.config = PipelineConfig()
        fit_input, self.fit_props = gen.series(self.seed, "render-fit", 0,
                                               InProcess.LENGTH)
        _, results = cli.run_pipeline(fit_input, self.config)
        self.models, self.tables = fitted(results)
        self.documents = {n: sf.model_to_document(m) for n, m in self.models.items()}
        self.names = [sf.SERIES_NAMES[j % 4] for j in range(self.PREDICTIONS)]
        tables = [self.tables[n] for n in self.names]
        self.x_range = np.array([(t.x.min(), t.x.max()) for t in tables]).T
        self.y_range = np.array([(t.y.min(), t.y.max()) for t in tables]).T
        self.verified_plot = None

    def make_input(self, i: int):
        """Long series i, plus prediction points inside each surface's table."""
        raw = super().make_input(i)
        u = np.random.default_rng([self.seed, 7, i]).random((2, self.PREDICTIONS))
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        return raw, (x0 + (x1 - x0) * u[0]).tolist(), (y0 + (y1 - y0) * u[1]).tolist()

    def op(self, inputs):
        raw, xs, ys = inputs
        config = self.config
        prices = cli.parse_price_csv(raw, config)
        dec = cli.decompose(cli.log_returns(prices), config.kz_trend, config.kz_seasonal)
        dec_csv = cli.decomposition_csv(dec)
        files = plot_artifacts(self.models, self.tables, self.GRID)
        docs = self.documents
        values = [sf.evaluate_surface(sf.model_from_document(docs[n]), x, y)
                  for n, x, y in zip(self.names, xs, ys)]
        return dec, dec_csv, files, values

    def check(self, i: int, inputs, out) -> None:
        """Every output in full, except plot files equal to verified ones.

        Every op renders the same models, and the same input must give
        byte-identical files, so files equal to ones that passed the full
        check are correct too.
        """
        _, xs, ys = inputs
        dec, dec_csv, files, values = out
        checks.decomposition_identity(dec)
        checks.decomposition_rows(dec_csv, dec)
        if self.verified_plot is None:
            checks.plot_files(files, self.models, self.tables, self.GRID)
            self.verified_plot = files
        checks.require(files == self.verified_plot,
                       "export-plot files differ from an earlier op")
        checks.predictions(values, self.names, xs, ys, self.models)

    def info(self) -> dict:
        return {**super().info(), "fit_input": asdict(self.fit_props)}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, out_dir: Path):
    """Run one child to completion: (seconds, exit code, max RSS MB, stdout, stderr)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout", "wb") as so, open(out_dir / "stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (out_dir / "stdout").read_text(encoding="utf-8", errors="replace")
    stderr = (out_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


class ColdCli:
    """Fresh ``python -m volfit`` processes on the bundled data."""

    name = "cold-cli"
    COMMANDS = ("import", "decompose", "fit", "evaluate", "export-plot", "predict")
    # commands that read the price CSV, for rows_per_s
    READERS = 4
    GRID = 25
    WARMUP = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / "cold"

    def setup(self) -> None:
        """In-process reference outputs for every command."""
        raw = BUNDLED.read_text(encoding="utf-8")
        config = PipelineConfig()
        prices = cli.parse_price_csv(raw, config)
        self.rows_per_file = len(prices)
        dec = cli.decompose(cli.log_returns(prices), config.kz_trend, config.kz_seasonal)
        self.expected_decomposition = cli.decomposition_csv(dec)
        _, results = cli.run_pipeline(raw, config)
        self.expected_fit = fit_artifacts(results)
        self.predict_model = results["volatility"]["model"]
        ref = self.out_dir / "reference"
        ref.mkdir(parents=True, exist_ok=True)
        self.model_path = ref / "model_volatility.json"
        self.model_path.write_text(self.expected_fit["model_volatility.json"],
                                   encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["evaluate", "--input", str(BUNDLED), "--method", "ols"])
        checks.require(code == 0, "in-process evaluate failed")
        self.expected_evaluate = buf.getvalue()
        _, results = cli.run_pipeline(raw, PipelineConfig(fit_method="bisquare"))
        self.plot_models, self.plot_tables = fitted(results)
        self.expected_plot = plot_artifacts(self.plot_models, self.plot_tables, self.GRID)
        checks.plot_files(self.expected_plot, self.plot_models, self.plot_tables,
                          self.GRID)
        rng = np.random.default_rng([self.seed, 11])
        table = results["volatility"]["table"]
        self.points = [(float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(table.y.min(), table.y.max())))
                       for _ in range(64)]

    def warm(self) -> None:
        """Untimed processes that load the interpreter and volfit from disk."""
        work = self.out_dir / "warm"
        for k in range(self.WARMUP):
            run_child(self.argv("import", k, work, None), work)
        shutil.rmtree(work, ignore_errors=True)

    def volfit_args(self, command: str, out: Path, point) -> list:
        data = str(BUNDLED.relative_to(ROOT))
        if command == "decompose":
            return ["decompose", "--input", data, "--out-dir", str(out)]
        if command == "fit":
            return ["fit", "--input", data, "--out-dir", str(out)]
        if command == "evaluate":
            return ["evaluate", "--input", data, "--method", "ols"]
        if command == "export-plot":
            return ["export-plot", "--input", data, "--method", "bisquare",
                    "--grid", str(self.GRID), "--out-dir", str(out)]
        if command == "predict":
            return ["predict", str(self.model_path), repr(point[0]), repr(point[1])]
        return []

    def argv(self, command: str, round_index: int, work: Path,
             spans: Path | None) -> list:
        point = self.points[round_index % len(self.points)]
        args = self.volfit_args(command, work / "files", point)
        if spans is not None:
            return [sys.executable, str(HERE / "coldtrace.py"), str(spans),
                    str(round_index), *args]
        if command == "import":
            return [sys.executable, "-c", "import volfit"]
        return [sys.executable, "-m", "volfit", *args]

    def check(self, command: str, round_index: int, code: int, stdout: str,
              files: dict) -> None:
        checks.require(code == 0, f"{command} exited with {code}")
        if command == "import":
            checks.require(stdout == "", "import printed output")
        elif command == "decompose":
            checks.require(files == {"decomposition.csv": self.expected_decomposition},
                           "decompose output differs from the in-process CSV")
        elif command == "fit":
            # equal to one reference, so also equal across cold runs
            checks.require(files == self.expected_fit,
                           "fit artifacts differ from the in-process documents")
        elif command == "evaluate":
            checks.require(stdout == self.expected_evaluate,
                           "evaluate output differs from the in-process output")
        elif command == "export-plot":
            checks.require(files == self.expected_plot,
                           "export-plot files differ from the in-process files")
            checks.plot_files(files, self.plot_models, self.plot_tables, self.GRID)
        elif command == "predict":
            point = self.points[round_index % len(self.points)]
            checks.predict_stdout(stdout, self.predict_model, *point)

    def loop(self, seconds: float, spans_dir: Path | None = None,
             start: int = 0) -> Measured:
        """Whole rounds, at least one, until ``seconds`` have passed.

        Times are per command; a round's time is the sum of its commands'.
        """
        m = Measured(commands={c: [] for c in self.COMMANDS})
        deadline = time.perf_counter() + seconds
        r = start
        while r == start or time.perf_counter() < deadline:
            round_s, round_ok = 0.0, True
            for command in self.COMMANDS:
                spans = None if spans_dir is None else spans_dir / f"{r}-{command}.jsonl"
                work = self.out_dir / "run" / command
                shutil.rmtree(work, ignore_errors=True)
                elapsed, code, rss, stdout, stderr = run_child(
                    self.argv(command, r, work, spans), work)
                files = {p.name: p.read_text(encoding="utf-8")
                         for p in sorted((work / "files").glob("*"))}
                m.attempted += 1
                try:
                    self.check(command, r, code, stdout, files)
                except checks.CheckError as exc:
                    m.fail(f"round {r} {command}: {exc}; stderr: {stderr[-300:]}")
                    round_ok = False
                shutil.rmtree(work, ignore_errors=True)
                m.commands[command].append(elapsed)
                m.peak_rss_mb = max(m.peak_rss_mb, rss)
                round_s += elapsed
            m.op_s.append(round_s)
            m.rows.append(self.READERS * self.rows_per_file)
            m.ok.append(round_ok)
            r += 1
        return m

    def info(self) -> dict:
        return {
            "input": "data/synthetic_vix.csv",
            "rows": self.rows_per_file,
            "commands": {c: self.volfit_args(c, Path("OUT"), self.points[0])
                         for c in self.COMMANDS},
            "fit_artifact_sha256": {
                name: hashlib.sha256(text.encode()).hexdigest()
                for name, text in sorted(self.expected_fit.items())
            },
        }


WORKLOADS = {w.name: w for w in (ColdCli, FitBatch, Render)}
