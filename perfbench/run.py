#!/usr/bin/env python3
"""Run one benchmark workload against real pqs_serve / pqs_router processes.

    python3 perfbench/run.py --workload serve_routed_journal --seed 1 --seconds 15 --trace 0

Builds the servers and pqs_bench from the enclosing source tree into
.bench_build/, launches the workload's server layout with shipped defaults
(only --listen and --journal are passed; no OMP_* variable and no --threads
is ever set), and drives it with pqs_bench's closed-loop generator.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the same wire workload, reads the servers' own counters, and then the
in-process traced pass, and prints every per-layer metric. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Each run also writes a result file (host record, raw figures) under
--out, and the traced pass writes its span file under .bench_out/spans/.
The exit code is non-zero when any output fails validation.
"""

import argparse
import json
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"

# Server layout per workload. The traffic shape (connections, windows,
# specs) belongs to pqs_bench (perfbench/src/workload.cpp).
LAYOUTS = {
    "serve_routed_journal": {"workers": 2, "router": True, "journal": True},
    "dense_shots": {"workers": 1, "router": False, "journal": False},
}
# setup_s is the median of this many launches per run, the measured one
# included.
SETUPS = 11


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binaries."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(
            f"perfbench: no source tree at {ROOT} (needs CMakeLists.txt "
            "and src/ beside perfbench/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  "pqs_bench", "pqs_serve", "pqs_router"])
    with open(build_log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-30:]
                raise SystemExit("perfbench: build failed:\n" + "\n".join(tail))
    return {"bench": BUILD / "pqs_bench",
            "serve": BUILD / "tools" / "pqs_serve",
            "router": BUILD / "tools" / "pqs_router"}


def free_port(taken):
    """A port nothing is bound to, below the kernel's ephemeral range: a
    client that retries connecting to a closed port inside that range can
    end up connected to itself."""
    with open("/proc/sys/net/ipv4/ip_local_port_range") as ports:
        ephemeral = int(ports.read().split()[0])
    while True:
        port = random.randrange(ephemeral - 10000, ephemeral)
        if port in taken:
            continue
        with socket.socket() as probe:
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                continue
        taken.add(port)
        return port


class Fleet:
    """One launch of a workload's server processes, on ports chosen before
    the launch so the generator can be connecting while they start."""

    def __init__(self, bins, layout, run_dir):
        self.bins = bins
        self.layout = layout
        self.run_dir = run_dir
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        self.procs = []
        self.taken = set()
        self.worker_ports = [free_port(self.taken)
                             for _ in range(layout["workers"])]
        self.journals = []
        port = free_port(self.taken) if layout["router"] else \
            self.worker_ports[0]
        self.endpoint = f"127.0.0.1:{port}"

    def _spawn(self, argv):
        proc = subprocess.Popen([str(a) for a in argv],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        self.procs.append(proc)
        return proc

    @staticmethod
    def _wait_listening(proc):
        """Block until the server says on stderr that it listens."""
        text = b""
        deadline = time.monotonic() + 30
        while b"listening on" not in text:
            ready, _, _ = select.select([proc.stderr], [], [],
                                        max(deadline - time.monotonic(), 0))
            chunk = proc.stderr.read1(4096) if ready else b""
            if not chunk:
                raise RuntimeError("server did not start listening:\n" +
                                   text.decode(errors="replace"))
            text += chunk

    def start(self):
        """Launch every process; returns the monotonic ns of the launch.
        A router starts once its workers listen, as a deployment's
        readiness check would have it; otherwise it may dial them before
        they listen and wait out its 20 ms connect retry."""
        t0 = time.monotonic_ns()
        workers = []
        for i, port in enumerate(self.worker_ports):
            argv = [self.bins["serve"], "--listen", f"127.0.0.1:{port}"]
            if self.layout["journal"]:
                journal = self.run_dir / f"journal-{i}.jsonl"
                self.journals.append(journal)
                argv += ["--journal", journal]
            workers.append(self._spawn(argv))
        if self.layout["router"]:
            for proc in workers:
                self._wait_listening(proc)
            self.add_router(self.worker_ports, int(self.endpoint.split(":")[1]))
        return t0

    def add_router(self, ports, port=None):
        """A router in front of `ports`; returns the port it listens on."""
        port = port or free_port(self.taken)
        self._spawn([self.bins["router"], "--listen", f"127.0.0.1:{port}",
                     "--workers", ",".join(f"127.0.0.1:{p}" for p in ports)])
        return port

    def pids(self):
        return [proc.pid for proc in self.procs]

    def exits(self):
        """Exit codes of the servers that are no longer running."""
        return {proc.pid: proc.returncode for proc in self.procs
                if proc.poll() is not None}

    def stop(self):
        """SIGTERM, then SIGKILL what is still running after a grace period.
        Returns how many processes had to be killed: the servers install
        their SIGTERM handler process-wide but sleep in sigsuspend() on the
        main thread, so a SIGTERM delivered to another thread can leave
        them running."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        killed = 0
        deadline = time.monotonic() + 2
        for proc in self.procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.01))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                killed += 1
            proc.stderr.close()
        self.procs = []
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return killed


def start_generator(bins, args, stdout):
    """Start pqs_bench and wait until it announces that it is connecting,
    so that its own start-up happens before the servers launch."""
    proc = subprocess.Popen([str(bins["bench"])] + [str(a) for a in args],
                            stdin=subprocess.PIPE, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stderr.readline()
    if not line.startswith("pqs_bench: connecting"):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"pqs_bench {args[0]} did not start: {line}")
    return proc


def stop_generator(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stderr.close()
    if proc.stdout:
        proc.stdout.close()


def proc_status(pid, field):
    """A numeric field of /proc/<pid>/status (kB for memory fields)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def ask(port, op):
    """One connection-level op on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall((json.dumps({"op": op, "id": "p"}) + "\n").encode())
        return json.loads(conn.makefile("r").readline())


def run_bench(bins, *args, timeout=170):
    """Run pqs_bench; returns (exit code, parsed last stdout line)."""
    argv = [str(bins["bench"])] + [str(a) for a in args]
    result = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                            timeout=timeout)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"pqs_bench {args[0]} printed nothing "
                           f"(exit {result.returncode})")
    return result.returncode, json.loads(lines[-1])


def host_record(bins):
    record = {"cores": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "cpu_model": None, "l3": None,
              "omp_env": {k: v for k, v in sorted(os.environ.items())
                          if k.startswith("OMP_")}}
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if (index / "level").read_text().strip() == "3":
            record["l3"] = (index / "size").read_text().strip()
    _, build_info = run_bench(bins, "host")
    record.update(build_info)
    git = ["git", "-C", str(ROOT)]
    top = subprocess.run(git + ["rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    record["git_sha"] = record["git_dirty"] = None  # not a git checkout
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
        sha = subprocess.run(git + ["rev-parse", "HEAD"],
                             capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain"],
                               capture_output=True, text=True)
        record["git_sha"] = sha.stdout.strip()
        record["git_dirty"] = bool(dirty.stdout.strip())
    return record


# -- server counters: window deltas of the `metrics` snapshots --

def counter(snapshot, name):
    return snapshot.get("counters", {}).get(name, 0)


def delta(after, before, name):
    return counter(after, name) - counter(before, name)


def server_metrics(wire, fleet, lifetimes, workers_total):
    before, after = wire["metrics_before"], wire["metrics_after"]
    # pqs_bench rebuilds these window histograms with LogHistogram.
    queue = wire["server_histograms"]["latency.queue_ns"]
    execs = wire["server_histograms"]["latency.exec_ns"]
    submitted = delta(after, before, "service.submitted")
    plans = (delta(after, before, "plan.cache_hits") +
             delta(after, before, "plan.cache_misses"))
    share = (lambda n, d: n / d if d else 0.0)
    # Journal figures are exact counts over each worker's whole life.
    done = sum(counter(m, "service.done") for m in lifetimes)
    appends = sum(counter(m, "journal.accepted_appends") +
                  counter(m, "journal.completed_appends") for m in lifetimes)
    journal_bytes = sum(path.stat().st_size for path in fleet.journals)
    return {
        "service.queue_ms_p50": queue["p50_ns"] / 1e6,
        "service.queue_ms_p99": queue["p99_ns"] / 1e6,
        "service.exec_ms_p50": execs["p50_ns"] / 1e6,
        "service.busy_share":
            execs["sum_ns"] / (wire["window_s"] * 1e9 * workers_total),
        "service.cache_hit_share":
            share(delta(after, before, "service.cache_hits"), submitted),
        "service.coalesced_share":
            share(delta(after, before, "service.coalesced_submits"), submitted),
        "service.rejected": delta(after, before, "service.rejected"),
        "api.planner.hit_share":
            share(delta(after, before, "plan.cache_hits"), plans),
        "net.rejected_connections":
            delta(after, before, "net.rejected_connections"),
        "net.disconnects": delta(after, before, "net.disconnects"),
        "service.journal.appends_per_result": share(appends, done),
        "service.journal.bytes_per_result": share(journal_bytes, done),
        "proc.cpu_wall_ratio": wire["server_cpu_s"] / wire["window_s"],
    }


def round_trips(bins, fleet):
    """Idle round trips straight to worker 0 and through a router that
    fronts only worker 0."""
    worker = fleet.worker_ports[0]
    router = fleet.add_router([worker])
    figures = {}
    for name, port, op in (("net.stats_rtt_us", worker, "stats"),
                           ("router.stats_rtt_us", router, "stats"),
                           ("net.metrics_rtt_us", worker, "metrics"),
                           ("router.forward_rtt_us", router, "metrics")):
        _, rtt = run_bench(bins, "rtt", "--endpoint", f"127.0.0.1:{port}",
                           "--op", op)
        figures[name] = rtt["median_us"]
    return figures


def setup_probe(bins, args, fleet):
    """Launch the fleet once with the set-up probe already connecting;
    returns seconds from the launch to the last connection's first ack."""
    probe = start_generator(bins, ["probe", "--workload", args.workload,
                                   "--endpoint", fleet.endpoint],
                            subprocess.PIPE)
    try:
        t0 = fleet.start()
        out, err = probe.communicate(timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"pqs_bench probe failed: {err}; "
                               f"exited servers: {fleet.exits()}")
        return (json.loads(out.splitlines()[-1])["ready_ns"] - t0) / 1e9
    finally:
        stop_generator(probe)


def run_wire(bins, args, fleet, sample_threads):
    """The measured wire run: launches the fleet with the generator already
    connecting; samples the servers' thread counts when asked. Returns the
    generator's exit code, its summary, the set-up seconds and the thread
    peak."""
    wire_out = fleet.run_dir / "wire.json"
    threads_peak = 0
    with open(wire_out, "w") as sink:
        proc = start_generator(
            bins, ["wire", "--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--endpoint", fleet.endpoint],
            sink)
        try:
            t0 = fleet.start()
            proc.stdin.write(",".join(str(p) for p in fleet.pids()) + "\n")
            proc.stdin.flush()
            deadline = time.monotonic() + args.seconds + 150
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise RuntimeError("pqs_bench wire did not finish")
                if sample_threads:
                    threads_peak = max(threads_peak, sum(
                        proc_status(pid, "Threads") for pid in fleet.pids()))
                time.sleep(0.02)
            err = proc.stderr.read()
        finally:
            stop_generator(proc)
    lines = wire_out.read_text().strip().splitlines()
    if not lines:
        raise RuntimeError(f"pqs_bench wire printed nothing "
                           f"(exit {proc.returncode}): {err}; "
                           f"exited servers: {fleet.exits()}")
    wire = json.loads(lines[-1])
    return proc.returncode, wire, (wire["ready_ns"] - t0) / 1e9, threads_peak


def end_to_end(wire, rss_kib, setups):
    valid = wire["valid"]
    return {
        "throughput_rps": wire["throughput_rps"],
        "latency_p50_ms": wire["latency_p50_ms"],
        "latency_p99_ms": wire["latency_p99_ms"],
        "valid_share": valid / wire["attempted"],
        "cpu_ms_per_result": wire["server_cpu_s"] * 1e3 / valid,
        "peak_rss_mib": rss_kib / 1024,
        "setup_s": statistics.median(setups),
    }


def measure(bins, args, spec):
    layout = LAYOUTS[args.workload]
    run_dir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "layout": layout, "host": host_record(bins)}
    setups = []
    killed = 0
    # Extra launches only time set-up; the traced run needs no setup_s.
    for _ in range(SETUPS - 1 if args.trace == 0 else 0):
        fleet = Fleet(bins, layout, run_dir)
        try:
            setups.append(setup_probe(bins, args, fleet))
        finally:
            killed += fleet.stop()

    fleet = Fleet(bins, layout, run_dir)
    try:
        code, wire, setup, threads_peak = run_wire(bins, args, fleet,
                                                   args.trace == 1)
        setups.append(setup)
        rss_kib = sum(proc_status(pid, "VmHWM") for pid in fleet.pids())
        lifetimes = [ask(port, "metrics")["metrics"]
                     for port in fleet.worker_ports]
        record["worker_metrics"] = lifetimes
        if args.trace == 1:
            workers_total = sum(ask(port, "stats")["workers"]
                                for port in fleet.worker_ports)
            layer = server_metrics(wire, fleet, lifetimes, workers_total)
            layer["proc.threads_peak"] = threads_peak
            layer.update(round_trips(bins, fleet))
    finally:
        killed += fleet.stop()

    valid, attempted = wire["valid"], wire["attempted"]
    record["wire"] = wire
    record["setups_s"] = setups
    record["servers_killed_at_stop"] = killed
    if args.trace == 0:
        values = end_to_end(wire, rss_kib, setups)
        wanted = spec["end_to_end"]
    else:
        spans = OUT / "spans" / f"{args.workload}.seed{args.seed}.json"
        code_traced, traced = run_bench(
            bins, "trace", "--workload", args.workload, "--seed", args.seed,
            "--spans", spans, "--scratch", run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        code = code or code_traced
        values = dict(layer)
        values.update(traced["metrics"])
        record["spans_file"] = traced["spans_file"]
        wanted = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(values) != set(units):
        raise RuntimeError(
            "metrics disagree with BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, unlisted "
            f"{sorted(set(values) - set(units))}")
    result = {
        "correct": code == 0 and wire["violation_count"] == 0,
        "attempted": attempted,
        "failed": attempted - valid,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record["result"] = result
    return result, record


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYOUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "runs",
                        help="directory that receives the result file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    bins = build()
    result, record = measure(bins, args, spec)

    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    for violation in record["wire"]["violations"]:
        log(f"violation: {violation}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
