"""Command line entry point: ``repro-bench`` / ``python -m repro.bench``.

Regenerates any paper artifact on demand::

    repro-bench --artifact table1
    repro-bench --artifact fig2 --full
    repro-bench --artifact all --out results/

Beyond the paper grid, the ``scenario`` verbs drive the declarative
scenario engine (:mod:`repro.scenarios`)::

    repro-bench scenario list
    repro-bench scenario validate examples/scenario_hetero.json
    repro-bench scenario run hetero-speeds --jobs 4
    repro-bench scenario run my_sweep.toml --results out/ --resume

``scenario run`` persists every row to a ResultStore (default:
``results/scenarios/<name>/``) so ``--resume`` replays cached cells
verbatim; ``--format``/``--out`` mirror the artifact flags.  ``sim``
and ``adv search`` take the same flags, and ``--resume`` with
``--no-store`` is an error: there is no store to replay.

The ``sim`` verbs execute schedules in the discrete-event simulator
(:mod:`repro.sim`) instead of trusting their predicted times::

    repro-bench sim run robustness-bnp --jobs 4
    repro-bench sim run my_spec.toml --noise lognormal:0.3 --trials 200
    repro-bench sim compare nightly-grid --noise uniform:0.2

``sim run`` prints each cell's executed-makespan distribution plus the
robustness ranking; ``sim compare`` prints just the ranking (predicted
vs simulated average ranks).  Rows persist to ``results/sim/<name>/``
by default and resume like any grid run.

The ``adv`` verbs run the PISA-style adversarial instance search
(:mod:`repro.adversarial`) instead of sampling graph space::

    repro-bench adv search adversarial-bnp --jobs 4
    repro-bench adv search my_spec.json --pair LAST MCP --steps 300
    repro-bench adv show adversarial-bnp
    repro-bench adv export adversarial-bnp --out instances/

``adv search`` anneals mutation chains that maximise a scheduler
pair's gap, persisting every chain plus a per-pair Pareto front
(instance size vs score) under ``results/adv/<name>`` by default;
``show`` re-renders a finished search from the store, and ``export``
writes the frontier instances as ``.stg`` files that
:func:`repro.generators.load_graph` reads back.

The ``serve`` / ``loadtest`` verbs run scheduling as a service
(:mod:`repro.service`)::

    repro-bench serve --port 8080 --jobs 4 --cache-dir results/cache
    repro-bench loadtest                       # self-hosted storm
    repro-bench loadtest --url 127.0.0.1:8080 --requests 500 --skew 1.3

``serve`` answers ``POST /schedule`` (task graph + machine + spec, as
JSON or bare STG text) with batching onto a persistent worker pool and
a fingerprint-keyed schedule cache, and drains cleanly on SIGTERM;
``loadtest`` replays a seeded Zipf-skewed traffic storm
(:mod:`repro.scenarios.storm`) and prints the RPS/p50/p99 table with
the cold-vs-warm cache speedup.

The ``check`` verb runs the domain-aware static analysis
(:mod:`repro.check`) over the repo's own source::

    repro-bench check
    repro-bench check --format=github
    repro-bench check --rules RPR001,RPR005 --list-rules

It exits 0 when the tree is clean and 1 with rule-coded findings
otherwise (CI runs it as a blocking job).  Orthogonally, the global
``--sanitize`` flag (equivalent to ``REPRO_SANITIZE=1`` in the
environment) arms the runtime sanitizer for any verb: TaskGraph /
Schedule arrays are frozen and kernel/simulator assertion hooks check
CSR round-trips, timeline ordering and event-heap monotonicity.

The global ``--trace[=PATH]`` flag (equivalent to ``REPRO_TRACE=1``,
plus ``REPRO_TRACE_PATH`` for the ``=PATH`` form) arms the tracing and
metrics layer (:mod:`repro.obs`) for any verb: scheduler spans, kernel
counters and executed sim/online timelines are recorded — worker
processes included — and flushed after the verb as a Perfetto-loadable
``trace.json`` plus a ``trace.manifest.json`` run summary.  The
companion verbs read those files back::

    repro-bench --trace sim run online-gap --no-store
    repro-bench trace show            # manifest summary
    repro-bench trace export --out clean.json   # viewer-ready document
    repro-bench profile --top 15      # self-time table

Reduced-scale suites run in seconds; ``--full`` (or ``REPRO_FULL=1``)
switches to the paper's exact grids.

Execution engine flags
----------------------
``--jobs N``
    Fan the (algorithm, graph) grid cells out over ``N`` worker
    processes (``0`` = one per CPU).  Output is identical to a serial
    run — the engine preserves the serial row order.
``--results DIR``
    Persist every benchmark row to ``DIR/results.json`` (plus a
    ``results.csv`` export), checkpointing every few cells; Tables 2-3
    also persist their branch-and-bound reference optima to
    ``DIR/optima.json``.  Without ``--resume`` the store is write-only:
    cells are recomputed and overwrite any cached rows.
``--resume``
    With ``--results``, reuse rows cached by previous runs instead of
    re-scheduling; only missing cells are executed.  An interrupted
    ``--full`` regeneration picks up from its last checkpoint, and the
    store is shared across artifacts — e.g. ``table6`` and ``fig2``
    reuse each other's RGNOS cells.
``--format {text,json,csv}``
    Artifact output format.  ``text`` is the paper-style ASCII block;
    ``json``/``csv`` emit machine-readable data and change the file
    extension written under ``--out``.  The ``analysis`` artifact is
    prose and is always rendered as text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from . import figures, tables
from ..check import sanitize as _sanitize
from ..obs import report as _obs_report
from ..obs import trace as _trace
from .store import OptimaStore, ResultStore, open_store

__all__ = ["main", "algo_main", "scenario_main", "sim_main", "adv_main",
           "trace_main", "profile_main", "serve_main", "loadtest_main"]


def _fail(message: str) -> int:
    """One-line diagnostic on stderr; the CLI's error exit code is 2."""
    print(f"repro-bench: error: {message}", file=sys.stderr)
    return 2


def _open_store(directory: str) -> ResultStore:
    """A validated, writable ResultStore (optima sidecar checked too).

    Raises ``ValueError`` with a one-line message on an unwritable or
    invalid path, or on corrupt/unsupported store files.
    """
    store = open_store(directory)
    OptimaStore(directory)  # validate the sidecar up front
    return store

_TABLE_BUILDERS: Dict[str, Callable] = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "table6": tables.table6,
}
_FIGURE_BUILDERS: Dict[str, Callable] = {
    "fig2": figures.fig2,
    "fig3": figures.fig3,
    "fig4": figures.fig4,
}


def _analysis_artifact(full, jobs=None, store=None, resume=False) -> str:
    """Section 7 conclusions: matched pairs + taxonomy-group means."""
    from .analysis import (
        design_decision_report,
        matched_pair_report,
        render_pairs,
        render_report,
    )
    from .runner import BNP_ALGORITHMS, UNC_ALGORITHMS, run_grid
    from .suites import rgnos_suite

    graphs = rgnos_suite(full)
    rows = run_grid(list(BNP_ALGORITHMS) + list(UNC_ALGORITHMS), graphs,
                    jobs=jobs, store=store, resume=resume)
    return (render_pairs(matched_pair_report(rows)) + "\n\n"
            + render_report(design_decision_report(rows)))


_EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


def _render_table(table: tables.Table, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_dict(), indent=2)
    if fmt == "csv":
        return table.as_csv()
    return tables.render(table)


def _render_panel(fig: figures.FigureSeries, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(fig.to_dict(), indent=2)
    if fmt == "csv":
        return fig.as_csv()
    return figures.render_figure(fig)


def _emit(text: str, name: str, out_dir: Optional[str],
          fmt: str = "text") -> None:
    print(text)
    print()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.{_EXTENSIONS[fmt]}")
        with open(path, "w") as fh:
            fh.write(text + "\n")


#: Environment variables ``--sanitize``/``--trace`` arm for one call.
_ARMING_VARS = (_sanitize.ENV_VAR, _trace.ENV_VAR, _trace.ENV_PATH_VAR)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # The arming flags hold for this invocation only: in-process callers
    # (tests, notebooks) get their environment back as it was.
    saved = {name: os.environ.get(name) for name in _ARMING_VARS}
    try:
        return _armed_main(argv)
    finally:
        traced_here = os.environ.get(_trace.ENV_VAR) != saved[_trace.ENV_VAR]
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if traced_here:
            # A tracer this call armed but never flushed (the verb
            # recorded nothing, or failed) would keep recording later
            # in-process work; drop it with the flag.
            _trace.reset()


def _armed_main(argv: List[str]) -> int:
    """Apply the arming flags to the environment, then run the verb."""
    if "--sanitize" in argv:
        # Arm the runtime sanitizer for this process (and any workers
        # that inherit the environment) before any verb touches data.
        argv = [a for a in argv if a != "--sanitize"]
        os.environ[_sanitize.ENV_VAR] = "1"
    kept = []
    for arg in argv:
        # Arm the tracing layer (repro.obs) the same way; workers
        # inherit the environment, so per-cell spans and counters are
        # recorded wherever the cell runs.
        if arg == "--trace":
            os.environ[_trace.ENV_VAR] = "1"
        elif arg.startswith("--trace="):
            os.environ[_trace.ENV_VAR] = "1"
            os.environ[_trace.ENV_PATH_VAR] = arg.split("=", 1)[1]
        else:
            kept.append(arg)
    argv = kept
    try:
        code = _dispatch(argv)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro-bench ... | head`) closed early;
        # suppress the traceback and exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    written = _obs_report.flush()
    if written is not None:
        trace_path, manifest_path = written
        print(f"[trace written to {trace_path}; "
              f"manifest: {manifest_path}]")
        # One flush per invocation: repeated in-process main() calls
        # (tests, notebooks) each write only their own data.
        _trace.reset()
    return code


def _dispatch(argv: List[str]) -> int:
    """Route one cleaned argv to its verb family."""
    if argv and argv[0] == "check":
        from ..check import check_main
        return check_main(argv[1:])
    if argv and argv[0] == "algo":
        return algo_main(argv[1:])
    if argv and argv[0] == "scenario":
        return scenario_main(argv[1:])
    if argv and argv[0] == "sim":
        return sim_main(argv[1:])
    if argv and argv[0] == "adv":
        return adv_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "loadtest":
        return loadtest_main(argv[1:])
    return _artifact_main(argv)


def _artifact_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of Kwok & Ahmad "
                    "(IPPS 1998).  The 'scenario' verbs (scenario "
                    "list/validate/run) drive arbitrary declarative "
                    "sweeps instead.",
    )
    parser.add_argument(
        "--artifact", default="all",
        choices=(["all"] + sorted(_TABLE_BUILDERS)
                 + sorted(_FIGURE_BUILDERS) + ["analysis"]),
        help="which artifact to regenerate (default: all)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale suites (large; pure Python takes a while)",
    )
    parser.add_argument(
        "--budget", type=int, default=150_000,
        help="branch-and-bound expansion budget for the RGBOS optima",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write each artifact to DIR/<name>.<ext> "
             "(+ .csv for figures in text mode)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the benchmark grid "
             "(1 = serial, 0 = one per CPU; default: 1)",
    )
    parser.add_argument(
        "--format", default="text", choices=sorted(_EXTENSIONS),
        dest="fmt", metavar="{text,json,csv}",
        help="artifact output format (default: text; "
             "'analysis' is always text)",
    )
    parser.add_argument(
        "--results", default=None, metavar="DIR",
        help="persist benchmark rows to DIR/results.json (+ .csv export)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="with --results: reuse cached rows, run only missing cells",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.results:
        parser.error("--resume requires --results DIR")
    full = True if args.full else None
    try:
        store = _open_store(args.results) if args.results else None
    except ValueError as exc:
        return _fail(str(exc))
    engine = {"jobs": args.jobs, "store": store, "resume": args.resume}

    wanted = (
        sorted(_TABLE_BUILDERS) + sorted(_FIGURE_BUILDERS) + ["analysis"]
        if args.artifact == "all"
        else [args.artifact]
    )
    for name in wanted:
        if name == "analysis":
            _emit(_analysis_artifact(full, **engine), name, args.out)
        elif name in _TABLE_BUILDERS:
            builder = _TABLE_BUILDERS[name]
            kwargs = {"full": full, **engine}
            if name in ("table2", "table3"):
                kwargs["budget"] = args.budget
            table = builder(**kwargs)
            _emit(_render_table(table, args.fmt), name, args.out, args.fmt)
        else:
            panels = _FIGURE_BUILDERS[name](full=full, **engine)
            for key, fig in panels.items():
                _emit(_render_panel(fig, args.fmt), f"{name}_{key.lower()}",
                      args.out, args.fmt)
                if args.out and args.fmt == "text":
                    path = os.path.join(args.out, f"{name}_{key.lower()}.csv")
                    with open(path, "w") as fh:
                        fh.write(fig.as_csv() + "\n")
    return 0


# ----------------------------------------------------------------------
# scenario verbs
# ----------------------------------------------------------------------
def _flag(value: bool) -> str:
    return "yes" if value else "-"


def algo_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench algo {list,describe}``.

    The one user-facing view of the scheduler namespace: everything
    this verb prints — registered acronyms and ``param:`` component
    specs alike — is accepted verbatim wherever an algorithm name goes
    (artifact flags, scenario documents, ``sim``/``adv`` pairs).
    """
    parser = argparse.ArgumentParser(
        prog="repro-bench algo",
        description="Inspect the scheduler registry and the component "
                    "space behind 'param:' spec strings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_list = sub.add_parser(
        "list", help="registered schedulers, taxonomy flags and the "
                     "component-spec grammar")
    p_list.add_argument("--class", dest="klass", default=None,
                        choices=("BNP", "UNC", "APN"),
                        help="restrict to one algorithm class")

    p_desc = sub.add_parser(
        "describe", help="one scheduler in full — for param schedulers, "
                         "the resolved component configuration")
    p_desc.add_argument("name", help="acronym (e.g. MCP) or component "
                                     "spec (param:prio=...,proc=...)")
    args = parser.parse_args(argv)

    from ..algorithms import get_scheduler, list_schedulers
    from ..algorithms.components import (
        APN_DESIGNS,
        AXES,
        BNP_DESIGNS,
        BNP_SPECS,
        ParamScheduler,
    )

    if args.verb == "list":
        print(f"{'name':<8} {'class':<5} {'cp':<4} {'dyn':<4} "
              f"{'ins':<4} complexity")
        for name in list_schedulers(args.klass):
            s = get_scheduler(name)
            print(f"{s.name:<8} {s.klass:<5} {_flag(s.cp_based):<4} "
                  f"{_flag(s.dynamic_priority):<4} "
                  f"{_flag(s.uses_insertion):<4} {s.complexity}")
        print()
        print("Component specs (accepted wherever a name is):")
        print("  param:" + ",".join(f"{axis}=<{axis}>" for axis in AXES))
        for axis, registry in AXES.items():
            print(f"  {axis:<7} {' '.join(sorted(registry))}")
        print("  named coordinates: "
              + " ".join(f"param:{acro.lower()}" for acro in BNP_SPECS))
        print()
        print("Online specs (event-driven execution under an "
              "information mode):")
        print("  online:<name-or-axes>[,imode=<imode>][,seed=<n>]")
        from ..sim.online import IMODES

        print(f"  imode   {' '.join(IMODES)}   (e.g. "
              "online:mcp,imode=mean)")
        return 0

    try:
        sched = get_scheduler(args.name)
    except (KeyError, ValueError) as exc:
        # str(KeyError) wraps the message in repr quotes; args[0] is
        # the message itself.
        return _fail(str(exc.args[0]) if exc.args else str(exc))
    from ..sim.online import OnlineScheduler

    # A paper design names its origin; every other scheduler's headline
    # is the first docstring line of the module that implements it.
    doc = sys.modules[type(sched).__module__].__doc__ or ""
    headline = getattr(sched, "origin", "") or doc.strip().split("\n")[0]
    print(f"{sched.name}  [{sched.klass}]")
    if headline:
        print(f"  {headline}")
    print(f"  cp-based:         {_flag(sched.cp_based)}")
    print(f"  dynamic priority: {_flag(sched.dynamic_priority)}")
    print(f"  insertion:        {_flag(sched.uses_insertion)}")
    print(f"  complexity:       {sched.complexity}")
    if isinstance(sched, (ParamScheduler, OnlineScheduler)):
        base = (sched.spec.base() if isinstance(sched, OnlineScheduler)
                else sched.spec)
        if isinstance(sched, ParamScheduler) and sched.origin:
            print(f"  component spec:   {base.canonical()}")
        print("  components:")
        for axis, component in sched.spec.components().items():
            label = f"{axis}={getattr(sched.spec, axis)}"
            print(f"    {label:<16} {component.summary}")
        if isinstance(sched, OnlineScheduler):
            print(f"  information mode: {sched.spec.imode}")
        # DLS-APN shares DLS's coordinates: the class tells them apart.
        designs = [acro for acro, design in {**BNP_DESIGNS,
                                             **APN_DESIGNS}.items()
                   if design.spec == base and design.klass == sched.klass]
        if designs:
            print(f"  paper design: {designs[0]}")
    return 0


# ----------------------------------------------------------------------
# the scenario pipeline's front half: scenario run, sim and adv
# ----------------------------------------------------------------------
#: Per verb family: the store's directory under ``results/`` and the
#: help of ``--no-store`` and ``--resume``.
_RUN_FAMILIES = {
    "scenario": ("scenarios", "do not persist rows",
                 "reuse rows cached by previous runs"),
    "sim": ("sim", "do not persist rows",
            "reuse rows cached by previous runs"),
    "adv": ("adv", "do not persist chains or the frontier",
            "replay chains cached by previous runs"),
}


def _add_run_flags(parser: argparse.ArgumentParser, family: str) -> None:
    """The spec argument and the seven flags every scenario run takes."""
    directory, no_store_help, resume_help = _RUN_FAMILIES[family]
    parser.add_argument("spec", help="spec file (.json/.toml) or "
                                     "registered scenario name")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--results", default=None, metavar="DIR",
                        help="ResultStore directory (default: "
                             f"results/{directory}/<name>)")
    parser.add_argument("--no-store", action="store_true",
                        help=no_store_help)
    parser.add_argument("--resume", action="store_true", help=resume_help)
    parser.add_argument("--format", default="text",
                        choices=sorted(_EXTENSIONS), dest="fmt",
                        metavar="{text,json,csv}",
                        help="output format (default: text)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write the tables to DIR")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale suites for 'graphs.suite' axes")


def _load_spec(source: str):
    """The spec a verb names; a ``ValueError`` carries the exit-2 line."""
    from ..scenarios import load_spec

    try:
        return load_spec(source)
    except OSError as exc:
        raise ValueError(
            f"cannot read {source!r} ({exc.strerror or exc})") from None


def _fold_overrides(spec, blocks: Dict[str, Dict[str, object]],
                    flags: Optional[Dict[str, str]] = None):
    """``spec`` with flag values folded in, ``{root: {leaf: value}}``.

    Each value replaces ``root.leaf``; the folded document is validated
    again, so a bad flag value fails with the same one-line dotted
    diagnostic as a bad spec.  A flag whose leaf the spec sweeps could
    never win (the sweep replaces the field per variant), so that is an
    error, never a silent no-op; every block is checked before any is
    validated.  ``flags`` names the flag behind a leaf when it is not
    ``--<leaf>``.
    """
    if not any(blocks.values()):
        return spec
    from ..scenarios import validate_spec

    for root, values in blocks.items():
        for leaf in values:
            for axis in spec.sweep:
                if (axis in (root, f"{root}.{leaf}")
                        or axis.startswith(f"{root}.{leaf}.")):
                    flag = (flags or {}).get(leaf, f"--{leaf}")
                    raise ValueError(
                        f"{flag} conflicts with the spec's sweep axis "
                        f"{axis!r} — drop the flag or remove the axis")
    doc = spec.to_dict()
    for root, values in blocks.items():
        if values:
            doc[root] = {**doc.get(root, {}), **values}
    return validate_spec(doc)


def _open_results(args, family: str, name: str):
    """``(store, directory)`` for one verb family's run of ``name``.

    The store is ``None`` under ``--no-store``, where ``--resume`` has
    nothing to replay and is rejected.  Raises ``ValueError`` with the
    one-line diagnostic.
    """
    directory = args.results or os.path.join(
        "results", _RUN_FAMILIES[family][0], name)
    if getattr(args, "no_store", False):
        if args.resume:
            raise ValueError("--resume needs a store to replay — "
                             "drop --no-store")
        return None, directory
    if family == "sim":
        from ..sim import sim_store as opener
    elif family == "adv":
        from ..adversarial import adv_store as opener
    else:
        opener = _open_store
    return opener(directory), directory


def scenario_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench scenario {list,validate,run}``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench scenario",
        description="Define and sweep arbitrary scheduling scenarios "
                    "from declarative JSON/TOML specs "
                    "(see repro.scenarios).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="registered ready-made scenarios")

    p_val = sub.add_parser(
        "validate", help="schema-check a spec file or registered name")
    p_val.add_argument("spec", help="spec file (.json/.toml) or "
                                    "registered scenario name")

    _add_run_flags(sub.add_parser(
        "run", help="compile a spec and run it through the grid engine"),
        "scenario")
    args = parser.parse_args(argv)

    from ..scenarios import (
        compile_scenario,
        get_scenario,
        online_tables,
        run_scenario,
        scenario_names,
        scenario_tables,
    )

    if args.verb == "list":
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:20s} {spec.num_variants():3d} variant(s)  "
                  f"{spec.description}")
        return 0

    try:
        spec = _load_spec(args.spec)
        if args.verb == "validate":
            compiled = compile_scenario(spec)
            graphs = sum(len(v.graphs) for v in compiled.variants)
            print(f"OK: scenario {spec.name!r} — "
                  f"{len(compiled.variants)} variant(s), {graphs} "
                  f"graph(s), {compiled.num_cells} grid cell(s), "
                  "algorithms: "
                  f"{', '.join(compiled.variants[0].algorithms)}")
            return 0
        compiled = compile_scenario(spec, full=True if args.full else None)
        store, _ = _open_results(args, "scenario", spec.name)
    except ValueError as exc:
        return _fail(str(exc))
    result = run_scenario(compiled, jobs=args.jobs, store=store,
                          resume=args.resume)
    detail, summary = scenario_tables(result)
    _emit(_render_table(detail, args.fmt), f"scenario_{spec.name}",
          args.out, args.fmt)
    _emit(_render_table(summary, args.fmt),
          f"scenario_{spec.name}_summary", args.out, args.fmt)
    if spec.online or any(v.online for v in compiled.variants):
        _emit(_render_table(online_tables(result), args.fmt),
              f"scenario_{spec.name}_online", args.out, args.fmt)
    if store is not None:
        print(f"[{len(store)} rows persisted under {store.directory}]")
    return 0


# ----------------------------------------------------------------------
# sim verbs
# ----------------------------------------------------------------------
def _parse_noise(text: str, flag: str):
    """``dist:param`` (e.g. ``lognormal:0.3``) -> perturb-block dict."""
    kind, sep, param = text.partition(":")
    if not sep:
        raise ValueError(f"{flag}: expected DIST:PARAM, got {text!r}")
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"{flag}: parameter {param!r} is not a number"
                         ) from None
    return {"dist": kind, "param": value}


def sim_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench sim {run,compare}``.

    Both verbs execute a scenario's schedules through the discrete-event
    Monte-Carlo layer (:mod:`repro.sim`); ``run`` prints the per-cell
    distribution table plus the robustness ranking, ``compare`` only the
    ranking.  The spec's ``simulate:`` block configures the execution
    model; the flags below override it ad hoc.
    """
    from ..sim.netmodel import NETWORK_KINDS
    from ..sim.online import IMODES

    parser = argparse.ArgumentParser(
        prog="repro-bench sim",
        description="Execute scheduled graphs in the discrete-event "
                    "simulator under stochastic runtimes and rank the "
                    "algorithms by robustness (see repro.sim).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("run", "Monte-Carlo a scenario; print distributions + ranking"),
        ("compare", "Monte-Carlo a scenario; print only the robustness "
                    "ranking"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--trials", type=int, default=None, metavar="N",
                       help="Monte-Carlo trials per cell "
                            "(default: spec value or 100)")
        p.add_argument("--seed", type=int, default=None,
                       help="noise-stream seed (default: spec value or 0)")
        p.add_argument("--noise", default=None, metavar="DIST:PARAM",
                       help="duration noise, e.g. lognormal:0.3 or "
                            "uniform:0.2 (overrides the spec)")
        p.add_argument("--speed-noise", default=None, metavar="DIST:PARAM",
                       help="per-processor speed jitter per trial")
        p.add_argument("--comm-noise", default=None, metavar="DIST:PARAM",
                       help="message-latency noise")
        p.add_argument("--network", default=None, choices=NETWORK_KINDS,
                       help="transport backend (default: spec value or "
                            "'auto' — each schedule's own model)")
        p.add_argument("--online", action="store_true",
                       help="also run each algorithm's event-driven "
                            "online counterpart (adds an 'online' block "
                            "to the spec; see repro.sim.online)")
        p.add_argument("--imode", default=None, metavar="MODE[,MODE...]",
                       help="information modes for --online (default: "
                            "all of exact, blind, mean, user); implies "
                            "--online")
        _add_run_flags(p, "sim")
    args = parser.parse_args(argv)

    from ..scenarios import compile_scenario, run_scenario, sim_tables

    try:
        spec = _load_spec(args.spec)
        simulate = {leaf: value for leaf, value in (
            ("trials", args.trials), ("seed", args.seed),
            ("network", args.network)) if value is not None}
        noise: Dict[str, object] = {}
        flags: Dict[str, str] = {}
        for flag, source, text in (
            ("--noise", "duration", args.noise),
            ("--speed-noise", "speed", args.speed_noise),
            ("--comm-noise", "comm", args.comm_noise),
        ):
            if text is not None:
                noise[source] = _parse_noise(text, flag)
                flags.setdefault("perturb", flag)
        if noise:
            simulate["perturb"] = {**spec.simulate.get("perturb", {}),
                                   **noise}
        online: Dict[str, object] = {}
        if args.imode is not None:
            online["imodes"] = [m.strip() for m in args.imode.split(",")
                                if m.strip()]
            flags["imodes"] = "--imode"
        elif args.online and not spec.online:
            # Bare --online: all modes, spec-or-default seed.
            online["imodes"] = list(IMODES)
            flags["imodes"] = "--online"
        spec = _fold_overrides(
            spec, {"simulate": simulate, "online": online}, flags)
        compiled = compile_scenario(spec, full=True if args.full else None)
        store, _ = _open_results(args, "sim", spec.name)
        # A run can still fail on its config, e.g. a contention backend
        # whose topology is smaller than the scenario's machine.
        result = run_scenario(compiled, jobs=args.jobs, store=store,
                              resume=args.resume, engine="sim")
    except ValueError as exc:
        return _fail(str(exc))
    detail, ranking = sim_tables(result)
    if args.verb == "run":
        _emit(_render_table(detail, args.fmt), f"sim_{spec.name}",
              args.out, args.fmt)
    _emit(_render_table(ranking, args.fmt), f"sim_{spec.name}_ranking",
          args.out, args.fmt)
    if store is not None:
        print(f"[{len(store)} sim rows persisted under {store.directory}]")
    return 0


# ----------------------------------------------------------------------
# trace / profile verbs
# ----------------------------------------------------------------------
def _load_trace_file(path: str):
    """Read a trace.json (or bare manifest) -> ``(document, manifest)``.

    A flushed ``trace.json`` embeds its manifest under ``reproManifest``
    (extra top-level keys are ignored by Perfetto); a sibling
    ``*.manifest.json`` is the manifest alone, in which case there is no
    document.  Raises ``ValueError`` with a one-line diagnostic.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"cannot read {path!r} ({exc.strerror or exc}) — record one "
            "with --trace or REPRO_TRACE=1 first") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path!r} is neither a trace nor a manifest")
    if "traceEvents" in data:
        return data, data.get("reproManifest") or {}
    if "schema" in data and "counters" in data:
        return None, data
    raise ValueError(f"{path!r} is neither a trace nor a manifest")


def trace_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench trace {show,export}``.

    Post-mortem views of a recorded run: ``show`` prints the manifest
    summary (counters, timelines, top self-time spans) embedded in a
    flushed ``trace.json``; ``export`` re-emits the Perfetto document
    alone — the manifest key stripped — for loading into
    https://ui.perfetto.dev or ``chrome://tracing``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Inspect or re-export a trace recorded with "
                    "--trace / REPRO_TRACE=1 (see repro.obs).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_show = sub.add_parser(
        "show", help="summarise a recorded trace's manifest")
    p_show.add_argument("path", nargs="?", default="trace.json",
                        help="trace.json or *.manifest.json "
                             "(default: trace.json)")
    p_exp = sub.add_parser(
        "export", help="write the viewer-ready Perfetto document")
    p_exp.add_argument("path", nargs="?", default="trace.json",
                       help="recorded trace.json (default: trace.json)")
    p_exp.add_argument("--out", default=None, metavar="PATH",
                       help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        doc, manifest = _load_trace_file(args.path)
    except ValueError as exc:
        return _fail(str(exc))
    if args.verb == "show":
        print(_obs_report.render_manifest(manifest))
        return 0
    if doc is None:
        return _fail(f"{args.path!r} is a manifest without trace events "
                     "— point at the trace.json")
    doc = {k: v for k, v in doc.items() if k != "reproManifest"}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[perfetto document written to {args.out}]")
    else:
        print(text)
    return 0


def profile_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench profile``: the top-N self-time table of a trace."""
    parser = argparse.ArgumentParser(
        prog="repro-bench profile",
        description="Print the self-time profile of a recorded trace "
                    "(see repro.obs; record one with --trace).",
    )
    parser.add_argument("path", nargs="?", default="trace.json",
                        help="trace.json or *.manifest.json "
                             "(default: trace.json)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows to print (default: 10)")
    args = parser.parse_args(argv)
    try:
        _, manifest = _load_trace_file(args.path)
    except ValueError as exc:
        return _fail(str(exc))
    print(_obs_report.render_profile(manifest, top=args.top))
    return 0


# ----------------------------------------------------------------------
# service verbs
# ----------------------------------------------------------------------
def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench serve``: run the scheduling service until SIGTERM.

    Stands up :class:`repro.service.ScheduleService` — async batching
    front end, fingerprint-keyed schedule cache, persistent worker
    pool — and blocks until SIGTERM/SIGINT triggers a clean drain
    (stop accepting, finish queued work, flush the cache).
    """
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Serve POST /schedule (task graph + machine + spec "
                    "-> schedule) with batching and a fingerprint-keyed "
                    "cache; GET /healthz and /stats for monitoring.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port, 0 = ephemeral (default: 8080)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes; 0 = one per CPU, "
                             "1 = in-process (default: 1)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        metavar="N",
                        help="pending-request bound before 429s "
                             "(default: 64)")
    parser.add_argument("--max-batch", type=int, default=8, metavar="N",
                        help="max requests batched per pool dispatch "
                             "(default: 8)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="per-request deadline before a 504 "
                             "(default: 30)")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        metavar="N",
                        help="in-memory LRU entries (default: 1024)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist the schedule cache in DIR "
                             "(default: memory only)")
    args = parser.parse_args(argv)

    from ..service import ScheduleService, ServiceConfig

    config = ServiceConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        queue_limit=args.queue_limit, max_batch=args.max_batch,
        timeout_s=args.timeout, cache_capacity=args.cache_capacity,
        cache_dir=args.cache_dir)

    async def run() -> None:
        service = ScheduleService(config)
        await service.start()
        service.install_signal_handlers()
        print(f"repro-bench serve: listening on "
              f"http://{config.host}:{service.port} "
              f"(jobs={service.pool.jobs}, "
              f"queue-limit={config.queue_limit}, "
              f"timeout={config.timeout_s:g}s)")
        try:
            await service.serve_forever()
        finally:
            await service.drain()
            print("repro-bench serve: drained, bye")

    try:
        asyncio.run(run())
    except ValueError as exc:          # e.g. unusable --cache-dir
        return _fail(str(exc))
    except KeyboardInterrupt:
        pass
    return 0


def loadtest_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench loadtest``: fire a seeded traffic storm, print the
    RPS/p50/p99 table.

    Self-hosts an in-process service by default (a from-cold
    measurement including cache warm-up); ``--url HOST:PORT`` targets
    a server started with ``repro-bench serve`` instead.
    """
    parser = argparse.ArgumentParser(
        prog="repro-bench loadtest",
        description="Replay a seeded, Zipf-skewed storm of scheduling "
                    "requests and report RPS, latency percentiles and "
                    "the cold-vs-warm cache speedup.",
    )
    parser.add_argument("--url", default=None, metavar="HOST:PORT",
                        help="target a running server (default: "
                             "self-host one in process)")
    parser.add_argument("--requests", type=int, default=200, metavar="N",
                        help="storm length (default: 200)")
    parser.add_argument("--templates", type=int, default=8, metavar="N",
                        help="distinct (graph, spec) templates "
                             "(default: 8)")
    parser.add_argument("--sizes", default="150,250,400", metavar="LIST",
                        help="comma-separated graph sizes the templates "
                             "cycle over (default: 150,250,400)")
    parser.add_argument("--ccr", type=float, default=1.0,
                        help="graph CCR (default: 1.0)")
    parser.add_argument("--specs", default=None, metavar="LIST",
                        help="comma-separated scheduler specs "
                             "(default: mcp,dls,param:prio=blevel,"
                             "proc=est)")
    parser.add_argument("--procs", type=int, default=8, metavar="P",
                        help="processors per request (default: 8)")
    parser.add_argument("--rate", type=float, default=500.0,
                        help="mean arrival rate in req/s (default: 500)")
    parser.add_argument("--skew", type=float, default=1.1,
                        help="Zipf popularity exponent (default: 1.1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="storm seed (default: 0)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="self-hosted server workers; worker "
                             "processes keep cold scheduling off the "
                             "event loop (default: 2)")
    parser.add_argument("--concurrency", type=int, default=16,
                        metavar="N",
                        help="client connections in flight "
                             "(default: 16)")
    parser.add_argument("--pace", type=float, default=0.0,
                        metavar="SCALE",
                        help="scale seeded arrival times; 0 = fire as "
                             "fast as --concurrency allows (default: 0)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="per-request deadline (default: 30)")
    parser.add_argument("--format", default="text",
                        choices=sorted(_EXTENSIONS),
                        help="output format (default: text)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write the table under DIR")
    args = parser.parse_args(argv)

    from ..scenarios.storm import StormConfig
    from ..service import loadtest_table, run_loadtest

    url = None
    if args.url is not None:
        host, sep, port = args.url.rpartition(":")
        if not sep or not port.isdigit():
            return _fail(f"--url must be HOST:PORT, got {args.url!r}")
        url = (host or "127.0.0.1", int(port))

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s)
        if not sizes:
            raise ValueError
    except ValueError:
        return _fail(f"--sizes must be comma-separated integers, "
                     f"got {args.sizes!r}")
    spec_field = StormConfig.__dataclass_fields__["specs"]
    if args.specs is None:
        specs = spec_field.default
    else:
        # Commas both separate specs and appear inside param specs
        # (``param:prio=blevel,proc=est``); a fragment that is a bare
        # key=value continues the previous spec.
        merged: List[str] = []
        for part in args.specs.split(","):
            if not part:
                continue
            if merged and "=" in part and ":" not in part:
                merged[-1] += "," + part
            else:
                merged.append(part)
        if not merged:
            return _fail(f"--specs must name at least one scheduler "
                         f"spec, got {args.specs!r}")
        specs = tuple(merged)

    config = StormConfig(requests=args.requests,
                         templates=args.templates, sizes=sizes,
                         ccr=args.ccr, specs=specs, procs=args.procs,
                         rate=args.rate, skew=args.skew, seed=args.seed)
    try:
        report = run_loadtest(config, url=url, jobs=args.jobs,
                              concurrency=args.concurrency,
                              pace=args.pace, timeout_s=args.timeout)
    except OSError as exc:
        return _fail(f"cannot reach {args.url}: {exc}")
    table = loadtest_table(report, config)
    _emit(_render_table(table, args.format), "loadtest", args.out,
          args.format)
    return 0


# ----------------------------------------------------------------------
# adv verbs
# ----------------------------------------------------------------------
def adv_main(argv: Optional[List[str]] = None) -> int:
    """``repro-bench adv {search,show,export}``.

    ``search`` anneals mutation chains over graph space to maximise a
    scheduler pair's gap (see :mod:`repro.adversarial`), persisting
    every finished chain plus the per-pair Pareto front; ``show``
    re-renders a previous search's store without recomputing; and
    ``export`` writes the frontier instances out as reloadable ``.stg``
    graph files (:func:`repro.generators.load_graph` reads them back).
    """
    from ..adversarial import OBJECTIVES

    parser = argparse.ArgumentParser(
        prog="repro-bench adv",
        description="Search graph space for adversarial instances — "
                    "graphs where one scheduler loses maximally to "
                    "another (see repro.adversarial).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_search = sub.add_parser(
        "search", help="run the annealing search for a scenario's pair")
    p_search.add_argument("--pair", nargs=2, default=None,
                          metavar=("A", "B"),
                          help="ordered scheduler pair to maximise "
                               "against (overrides the spec)")
    p_search.add_argument("--objective", default=None, choices=OBJECTIVES,
                          help="score to maximise (default: spec value "
                               "or 'ratio')")
    p_search.add_argument("--steps", type=int, default=None, metavar="N",
                          help="mutations per chain")
    p_search.add_argument("--chains", type=int, default=None, metavar="N",
                          help="independent annealing chains")
    p_search.add_argument("--temperature", type=float, default=None,
                          metavar="T",
                          help="initial acceptance temperature (0 = "
                               "greedy hill climb)")
    p_search.add_argument("--seed", type=int, default=None,
                          help="search seed (chains derive their own "
                               "streams from it)")
    _add_run_flags(p_search, "adv")

    p_show = sub.add_parser(
        "show", help="re-render a previous search's store and frontier")
    p_show.add_argument("spec", help="spec file or registered name "
                                     "(locates the default store)")
    p_show.add_argument("--results", default=None, metavar="DIR",
                        help="ResultStore directory (default: "
                             "results/adv/<name>)")
    p_show.add_argument("--format", default="text",
                        choices=sorted(_EXTENSIONS), dest="fmt",
                        metavar="{text,json,csv}",
                        help="output format (default: text)")
    p_show.add_argument("--out", default=None, metavar="DIR",
                        help="also write the tables to DIR")

    p_exp = sub.add_parser(
        "export", help="write found instances as reloadable .stg files")
    p_exp.add_argument("spec", help="spec file or registered name "
                                    "(locates the default store)")
    p_exp.add_argument("--results", default=None, metavar="DIR",
                       help="ResultStore directory (default: "
                            "results/adv/<name>)")
    p_exp.add_argument("--out", required=True, metavar="DIR",
                       help="directory for the .stg files")
    p_exp.add_argument("--all", action="store_true",
                       help="export every chain's best instance, not "
                            "just the Pareto front")
    args = parser.parse_args(argv)

    from ..adversarial import ParetoFrontier
    from ..scenarios import (
        ScenarioResult,
        adv_tables,
        compile_scenario,
        run_scenario,
    )

    try:
        spec = _load_spec(args.spec)
        if args.verb == "search":
            spec = _fold_overrides(spec, {"adversarial": {
                leaf: getattr(args, leaf)
                for leaf in ("pair", "objective", "steps", "chains",
                             "temperature", "seed")
                if getattr(args, leaf) is not None}})
            if not spec.adversarial and not spec.sweep:
                raise ValueError(
                    f"scenario {spec.name!r} has no adversarial block — "
                    "add one to the spec, or pass --pair A B (plus "
                    "optional --objective/--steps/...) to search it "
                    "ad hoc")
            compiled = compile_scenario(
                spec, full=True if args.full else None)
        store, results_dir = _open_results(args, "adv", spec.name)
        frontier_path = os.path.join(results_dir, "frontier.json")
        frontier = (ParetoFrontier() if store is None
                    else ParetoFrontier(frontier_path))
        if args.verb == "search":
            result = run_scenario(compiled, jobs=args.jobs, store=store,
                                  resume=args.resume, engine="search")
    except ValueError as exc:
        return _fail(str(exc))

    if args.verb == "search":
        frontier.update(result.all_rows())
        if store is not None:
            frontier.save(frontier_path)
    else:
        # show / export work off the persisted store alone (e.g. after
        # an ad-hoc --pair search on a spec without the block).
        rows = store.rows()
        if not rows:
            return _fail(f"no chains stored under {results_dir!r} — run "
                         f"'adv search {args.spec}' first")
        if not len(frontier):
            frontier.update(rows)
        if args.verb == "export":
            return _export_instances(rows, frontier, args.out, args.all)
        result = ScenarioResult(spec, rows=[("store", rows)])

    detail, front = adv_tables(result, frontier)
    _emit(_render_table(detail, args.fmt), f"adv_{spec.name}",
          args.out, args.fmt)
    _emit(_render_table(front, args.fmt), f"adv_{spec.name}_frontier",
          args.out, args.fmt)
    if args.verb == "search" and store is not None:
        print(f"[{len(store)} chain(s) persisted under "
              f"{store.directory}; frontier: {len(frontier)} point(s)]")
    return 0


def _export_instances(rows, frontier, out: str, every: bool) -> int:
    """``adv export``: write found instances as reloadable ``.stg`` files.

    ``every`` writes each chain's best instance, not just the frontier.
    """
    import hashlib

    points = []
    if every:
        points = [(r.instance, r.stg) for r in rows]
    else:
        for pair in frontier.pairs():
            points.extend((p.instance, p.stg) for p in frontier.front(pair))
    # Instance names encode pair/objective/chain but not the search
    # knobs, so one store can hold several *different* graphs under one
    # name (e.g. reruns with other --steps).  Identical content dedups;
    # colliding content gets a short content-hash suffix — nothing is
    # silently dropped or overwritten.
    exported: Dict[str, str] = {}  # file stem -> content
    os.makedirs(out, exist_ok=True)
    written = []
    for instance, stg in points:
        if not stg:
            continue
        name = instance
        if exported.get(name, stg) != stg:  # same name, different graph
            digest = hashlib.sha256(stg.encode()).hexdigest()[:8]
            name = f"{instance}-{digest}"
        if name in exported:  # identical content already written
            continue
        exported[name] = stg
        path = os.path.join(out, f"{name}.stg")
        with open(path, "w") as fh:
            fh.write(stg)
        written.append(path)
    for path in written:
        print(path)
    print(f"[{len(written)} instance(s) exported to {out}; reload "
          "with repro.generators.load_graph]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
