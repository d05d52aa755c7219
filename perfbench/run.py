"""Benchmark runner: one workload in one Ray driver process at ``num_cpus=2``.

    python3 perfbench/run.py --workload flagship_broadcast --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads, metrics and the layer map are
described in perfbench/README.md; the metric list itself is BENCHMARK.json.
Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it is the run record: environment, every
sample, and the problems any check found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".pbrun")  # inputs, Ray session, traces

NUM_CPUS = 2  # 1 CPU hangs the shuffle plans (README, "Known defects")
OBJECT_STORE_BYTES = 768 << 20
# input sizes: the flagship corpus's replica count (both plans) and the
# relational tables' customer count (10 orders per customer, 1 document per
# 3 customers: the sf0.1 distributions at 1/10 of its rows)
REPLICAS = 200  # at most 200: replica 200 lands on replica 0 (README, "Known defects")
CUSTOMERS = 1500
# sizes of the inputs of the untimed run that warms a session
WARM_REPLICAS = 2
WARM_CUSTOMERS = 150
SETUP_CYCLES = 2
# seconds of a run each rep is allotted: 4, 4 and 3 reps at --seconds 20,
# which keeps 70 runs of all three workloads within an hour on a busy host.
REP_BUDGET_S = {"flagship_broadcast": 5.0, "flagship_shuffle": 5.0, "relational_skew": 6.5}
# a traced run makes 3 (fused, traced) rep pairs
TRACE_PAIRS = 3
REP_TIMEOUT_S = 60.0
PROCESS_DEADLINE_S = 170.0  # no rep starts or runs past this

T_START = 0.0  # perf_counter() when main() started


class RepTimeout(BaseException):
    """Raised in the main thread when a rep passes its timeout. A
    BaseException, so no ``except Exception`` inside the engine swallows it."""


def _on_alarm(signum, frame):
    raise RepTimeout()


def _rss_reset():
    """Reset this process's peak RSS (Linux >= 4.0). Where that is not
    supported the peak stays the process's high-water mark."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _rss_peak_mb() -> float:
    import resource

    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ray_init():
    import ray
    from ray.data import DataContext

    from workloads import EXECUTIONS

    kwargs = dict(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
    )
    temp = os.path.join(RUN_DIR, "ray")
    # Ray's unix socket paths (temp + ~65 chars) must stay under 108 bytes;
    # a deeper checkout falls back to Ray's default temp dir
    if len(temp) <= 40:
        kwargs["_temp_dir"] = temp
    ray.init(**kwargs)
    DataContext.get_current().enable_progress_bars = False
    EXECUTIONS.install()


def _environment(args, replicas) -> dict:
    import pyarrow
    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    cpus = int(ray.cluster_resources().get("CPU", 0))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "replicas": replicas,
        "nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": cpus,
        # the rule at stages/elements.py build_parser_tables(plan="auto")
        "ingest_plan_auto": "split" if cpus >= 16 else "scan3",
        "ray_version": ray.__version__, "pyarrow_version": pyarrow.__version__,
    }


def _in_child(statements: str):
    """Run ``statements`` (with ``inputs`` imported) in a fresh interpreter
    and wait for it, so input synthesis leaves this process's RSS, a
    reported metric, untouched."""
    subprocess.run(
        [sys.executable, "-c", "import inputs\n" + statements],
        cwd=HERE, check=True, timeout=120,
    )


class Workload:
    """Inputs, runs and checks of one named workload. Inputs are made in a
    child process; the calls here then find them on disk."""

    def __init__(self, name: str, seed: int):
        import inputs

        self.name = name
        self.replicas = REPLICAS
        if name == "relational_skew":
            import checks
            from workloads import RELATIONAL_LAYERS

            _in_child("".join(
                f"inputs.relational_tables({RUN_DIR!r}, {seed}, {c})\n"
                for c in (CUSTOMERS, WARM_CUSTOMERS)
            ))
            self.tables = inputs.relational_tables(RUN_DIR, seed, CUSTOMERS)
            self.warm_tables = inputs.relational_tables(RUN_DIR, seed, WARM_CUSTOMERS)
            # one DuckDB oracle per process: the input is fixed for the run
            self.oracles = checks.relational_oracles(
                self.tables, list(RELATIONAL_LAYERS.values())
            )
            self.replicas = None
        else:
            self.small_side = name.split("_", 1)[1]
            _in_child("".join(
                f"inputs.pages_corpus({RUN_DIR!r}, {seed}, {r})\n"
                for r in (self.replicas, WARM_REPLICAS)
            ))
            self.pages = inputs.pages_corpus(RUN_DIR, seed, self.replicas)
            self.warm_pages = inputs.pages_corpus(RUN_DIR, seed, WARM_REPLICAS)

    def warm(self):
        """One untimed run on small inputs. The first run of a session is
        cold (about 1.4x a warm flagship rep, 1.15x a warm relational
        one); this takes its place, so every measured rep is warm."""
        import workloads

        if self.name == "relational_skew":
            workloads.relational(self.warm_tables)
        else:
            workloads.flagship_fused(self.warm_pages, self.small_side)

    def run(self, traced: bool) -> dict:
        import workloads

        if self.name == "relational_skew":
            return workloads.relational(self.tables)
        if traced:
            return workloads.flagship_traced(self.pages, self.small_side)
        return workloads.flagship_fused(self.pages, self.small_side)

    def check(self, outputs: dict) -> list[str]:
        import checks

        if self.name == "relational_skew":
            return [
                p for q, want in self.oracles.items()
                for p in checks.check_relational(q, outputs[q], want)
            ]
        return checks.check_flagship(outputs, self.replicas)


@contextlib.contextmanager
def _timeout(seconds: float):
    """Raise RepTimeout in the main thread after ``seconds``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _attempt(wl: Workload, traced: bool, log: dict):
    """One timed rep under a hard timeout, then its output check. Returns
    the rep's result, or None if it raised, timed out or was wrong."""
    from workloads import EXECUTIONS, to_arrow

    log["attempted"] += 1
    remaining = PROCESS_DEADLINE_S - (time.perf_counter() - T_START)
    try:
        with _timeout(min(REP_TIMEOUT_S, remaining)):
            _rss_reset()
            launched = EXECUTIONS.count
            res = wl.run(traced)
            res["rss_mb"] = _rss_peak_mb()
            res["executions"] = EXECUTIONS.count - launched
    except (Exception, RepTimeout) as e:
        kind = "timeout" if isinstance(e, RepTimeout) else f"{type(e).__name__}: {e}"
        log["problems"].append(f"rep {log['attempted']}: {kind}"[:500])
        log["failed"] += 1
        _restart_ray()  # hung shuffle actors would stall every later rep
        return None
    try:
        outputs = {k: to_arrow(d) for k, d in res.pop("sinks").items()}
        problems = wl.check(outputs)
    except Exception as e:  # an output too malformed to compare
        problems = [f"check raised {type(e).__name__}: {e}"[:500]]
    if problems:
        log["problems"].extend(f"rep {log['attempted']}: {p}" for p in problems)
        log["failed"] += 1
        return None
    return res


def _restart_ray():
    _stop_ray()
    if time.perf_counter() - T_START < PROCESS_DEADLINE_S - 20:
        _ray_init()


def _become_subreaper():
    """Make this process the reaper of its orphaned descendants (Linux >=
    3.4), so Ray workers that outlive the raylet come back here to be
    waited for instead of to init."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _descendants() -> set:
    """Pids of every process below this one, zombies included."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    parent[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier and p not in found}
        found |= frontier
    return found


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (OSError, IndexError):
        return False


def _reap():
    """Collect the exit status of every ended child."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_ray(grace_s: float = 5.0):
    """``ray.shutdown()``, then wait until every process started under this
    one (raylet, GCS, workers, and workers the raylet left behind) has
    ended and been reaped; kill what is left after ``grace_s``."""
    import ray

    started = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        _reap()
        # without a subreaper, orphans move to init and leave the tree
        alive = _descendants() | {p for p in started if _running(p)}
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(alive)} outlived SIGKILL")
            for pid in alive:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def _end_to_end(reps: list, setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "join_rows_per_s": statistics.median(r["rows"] / r["wall_s"] for r in reps),
        "setup_s": setup_s,
        "driver_peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def _per_layer(names: list, traced: list, fused: list, log: dict) -> dict:
    """Median over the traced reps of each ``layer.metric`` in ``names``;
    layers the workload does not run read 0."""
    out = {"error_rate": log["failed"] / log["attempted"]}
    for name in names:
        layer, metric = name.rsplit(".", 1)
        vals = [r["layers"][layer][metric] for r in traced if layer in r["layers"]]
        out[name] = statistics.median(vals) if vals else 0
    layer_sum = statistics.median(sum(s["wall_s"] for s in r["layers"].values()) for r in traced)
    fused_wall = statistics.median(r["wall_s"] for r in fused)
    out.update({
        "trace.layer_sum_s": layer_sum,
        "trace.fused_wall_s": fused_wall,
        "trace.overhead_s": layer_sum - fused_wall,
    })
    return out


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    global T_START
    T_START = time.perf_counter()
    _become_subreaper()
    args = _parse(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "__ray_entry__.py")):
        print("the engine sources are not in this directory", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    # Ray workers import the engine and these modules by path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p
    )
    # Ray Data's hash shuffle partitions rows by Python hash(); a fixed hash
    # seed in the workers gives string keys the same partitions every run
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path[:0] = [ROOT, HERE]

    t0 = time.perf_counter()
    import ray
    import ray.data  # noqa: F401

    import __ray_entry__  # noqa: F401
    import osmptparser_ray.pipelines.spatial_join  # noqa: F401

    import_s = time.perf_counter() - t0

    wl = Workload(args.workload, args.seed)

    import workloads

    # a fixed rep count per (workload, seconds): parent and child commits do
    # the same work, and reps slow as a Ray session ages, so a time-boxed
    # count would shift the median
    reps = max(1, round(args.seconds / REP_BUDGET_S[args.workload]))
    if args.trace:
        reps = TRACE_PAIRS
    log = {"attempted": 0, "failed": 0, "problems": []}
    fused, traced = [], []
    try:
        # set-up: ray.init plus one tiny run that starts the workers and
        # imports the engine in them, several times; the last one stays up
        cycles = []
        for i in range(SETUP_CYCLES):
            if i:
                _stop_ray()
            t0 = time.perf_counter()
            with _timeout(REP_TIMEOUT_S):
                _ray_init()
                workloads.warm_up()
            cycles.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(cycles)
        with _timeout(REP_TIMEOUT_S):
            wl.warm()
        env = _environment(args, wl.replicas)

        for _ in range(reps):
            if time.perf_counter() - T_START > PROCESS_DEADLINE_S - REP_TIMEOUT_S:
                log["problems"].append("process deadline: reps skipped")
                break
            res = _attempt(wl, False, log)
            if res is not None:
                fused.append(res)
                if args.trace and args.workload == "relational_skew":
                    traced.append(res)  # its spans are the traced run
            if args.trace and args.workload != "relational_skew":
                res = _attempt(wl, True, log)
                if res is not None:
                    traced.append(res)
    finally:
        _stop_ray()

    record = dict(env)
    record.update(
        import_s=import_s, setup_cycles_s=cycles,
        fused_wall_s=[r["wall_s"] for r in fused],
        fused_rows=[r["rows"] for r in fused],
        fused_executions=[r["executions"] for r in fused],
        driver_peak_rss_mb=[r["rss_mb"] for r in fused],
        error_rate=log["failed"] / max(1, log["attempted"]),
        problems=log["problems"],
        process_s=time.perf_counter() - T_START,
    )
    if traced:
        record["spans"] = [r["layers"] for r in traced]
        trace_path = os.path.join(
            RUN_DIR, f"trace-{args.workload}-s{args.seed}-{os.getpid()}.json"
        )
        with open(trace_path, "w") as f:
            json.dump(record["spans"], f, indent=1)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if fused and (traced or not args.trace):
        if args.trace:
            # "<layer>.<metric>" names; error_rate and trace.* are run-wide
            names = [m["name"] for m in spec["per_layer"] if "." in m["name"]
                     and not m["name"].startswith("trace.")]
            values = _per_layer(names, traced, fused, log)
        else:
            values = _end_to_end(fused, setup_s)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {
        "correct": log["failed"] == 0 and bool(metrics),
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
