"""Turns one e2e_bench run's raw record into the benchmark's metrics.

The C++ binary records raw samples (per-op host times, per-step modeled
values, per-step layer values); this module owns every statistic taken
over them, so the choices below are the ones the unit tests pin down.
"""

import math
import statistics

# (name, unit, kind). kind says where a number comes from: "host" is
# measured wall time or memory on the machine running the benchmark,
# "host-cpu" is CPU time all threads of the process spent in one op (steal
# excluded), "modeled" comes from the platform / PFS / energy model, and
# "deterministic" repeats exactly for a given seed.
END_TO_END = [
    ("setup_s", "s", "host"),
    ("write_ms_p90", "ms", "host-cpu"),
    ("read_ms_p90", "ms", "host-cpu"),
    ("query_ms_p90", "ms", "host-cpu"),
    ("modeled_op_s_p90", "s", "modeled"),
    ("modeled_j_per_gb_p90", "J/GB", "modeled"),
    ("energy_saving_x_p10", "x", "modeled"),
    ("ratio", "x", "deterministic"),
    ("psnr_db", "dB", "deterministic"),
    ("fetch_amp", "x", "deterministic"),
    ("peak_rss_mb", "MiB", "host"),
]

PER_LAYER = [
    ("compressors.predict_s", "s", "host"),
    ("compressors.reconstruct_s", "s", "host"),
    ("compressors.framing_s", "s", "host"),
    ("compressors.chunking_s", "s", "host"),
    ("codec.huffman_encode_s", "s", "host"),
    ("codec.huffman_decode_s", "s", "host"),
    ("codec.huffman_bits_per_code", "bits", "deterministic"),
    ("codec.lz_compress_s", "s", "host"),
    ("codec.lz_decompress_s", "s", "host"),
    ("codec.lz_kept_frac", "frac", "deterministic"),
    ("codec.lz_wasted_s", "s", "host"),
    ("io.container_write_s", "s", "host"),
    ("io.container_read_s", "s", "host"),
    ("io.transport_sectors", "count", "deterministic"),
    ("io.transport_credit_stalls", "count", "host"),
    ("io.transport_mean_inflight", "sectors", "modeled"),
    ("io.transport_stall_s", "s", "modeled"),
    ("io.pfs_wire_s", "s", "modeled"),
    ("io.pfs_rpc_s", "s", "modeled"),
    ("io.pfs_xfer_s", "s", "modeled"),
    ("io.pfs_bytes_written", "bytes", "deterministic"),
    ("io.pfs_bytes_read", "bytes", "deterministic"),
    ("io.zones_decoded_per_query", "count", "deterministic"),
    ("io.fetch_bytes_per_query", "bytes", "deterministic"),
    ("parallel.executor_tasks", "count", "host"),
    ("parallel.executor_steals", "count", "host"),
    ("parallel.executor_help_runs", "count", "host"),
    ("parallel.executor_submit_waits", "count", "host"),
    ("parallel.executor_task_s", "s", "host"),
    ("common.pool_hit_frac", "frac", "host"),
    ("common.pool_retained_mb", "MB", "host"),
    ("energy.compress_j", "J", "modeled"),
    ("energy.write_j", "J", "modeled"),
    ("energy.fetch_j", "J", "modeled"),
    ("energy.decompress_j", "J", "modeled"),
    ("energy.raw_io_j", "J", "modeled"),
    ("core.pipeline_overlap_s", "s", "modeled"),
    ("core.unattributed_s", "s", "host"),
    ("core.trace_overhead_s", "s", "host"),
    ("failed_frac", "frac", "host"),
]

OP_TYPES = ("write", "read", "query")

# Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# Relative tolerance of the traced run's closure check: layer spans plus
# core.unattributed_s must add up to each traced op's wall time.
CLOSURE_TOLERANCE = 1e-6


def tail_percentile(n):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Linear-interpolated percentile (the 'inclusive' definition).

    Failed ops enter as +inf, so they count as missing every latency limit.
    """
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return math.inf if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def whole_cycles(values, cycle):
    """The leading values that fill whole cycles of `cycle` steps.

    Steps visit the run's inputs in a fixed cycle, so a median over whole
    cycles sees every input equally often and does not depend on how many
    cycles a run completed: the median of k copies of a set is the set's
    median. A run that did not finish one cycle keeps all its values.
    """
    n = len(values) // cycle * cycle
    return values[:n] if n else values


# Op times behind the end-to-end percentiles: process CPU time, which the
# hypervisor's steal bursts on a shared host do not inflate. Wall times are
# printed beside them.
TIMING_KEY = "samples_cpu_ms"

# The percentile the end-to-end timings are gated on. On a shared host an
# op runs at one of two speeds, depending on whether the host core is busy
# with another guest, and the share of slow samples changes from run to
# run. A median sits between the two speeds and jumps with that share; p90
# sits inside the slow one. The medians are printed, not gated.
GATED_PERCENTILE = 90.0


def op_samples(raw, op_type, key=TIMING_KEY):
    """Times of one op type in ms, failed ops as +inf."""
    ms = raw[key].get(op_type, [])
    ok = raw["samples_ok"].get(op_type, [])
    return [t if good else math.inf for t, good in zip(ms, ok)]


def timing_summary(raw, key=TIMING_KEY):
    """Per op type: (samples, p50, p90, tail percentile the count supports)."""
    out = {}
    for op in OP_TYPES:
        xs = op_samples(raw, op, key)
        out[op] = (len(xs), percentile(xs, 50), percentile(xs, 90),
                   tail_percentile(len(xs)))
    return out


def per_step(raw, name, p):
    """Percentile p of a per-step modeled value over whole input cycles."""
    return percentile(whole_cycles(raw["steps"][name], int(raw["inputs"])), p)


def end_to_end_values(raw):
    p = GATED_PERCENTILE
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "modeled_op_s_p90": per_step(raw, "modeled_op_s", p),
        "modeled_j_per_gb_p90": per_step(raw, "modeled_j_per_gb", p),
        # The saving of the step whose joules sit at p90: the slow tail of
        # a ratio with the step's joules in the denominator.
        "energy_saving_x_p10": per_step(raw, "energy_saving_x", 100.0 - p),
        "ratio": raw["ratio"],
        "psnr_db": raw["psnr_db"],
        "fetch_amp": raw["fetch_amp"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for op, (_, _, p90, _) in timing_summary(raw).items():
        values[f"{op}_ms_p90"] = p90
    return values


def per_layer_values(raw):
    cycle = int(raw["inputs"])
    values = {name: statistics.median(whole_cycles(v, cycle))
              for name, v in raw["layers"].items()}
    values["failed_frac"] = failed_frac(raw["attempted"], raw["failed"])
    return values


def build_result(raw):
    """Returns (result, problems): the contract's JSON object, and the
    reasons (if any) the run is not correct."""
    trace = int(raw["trace"]) == 1
    specs = PER_LAYER if trace else END_TO_END
    values = per_layer_values(raw) if trace else end_to_end_values(raw)
    problems = []
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if failed:
        problems.append(f"{failed} of {attempted} ops failed: {raw['errors']}")
    if trace:
        if raw["parity_failures"]:
            problems.append(f"{raw['parity_failures']} traced ops lost "
                            "parity with the pipeline")
        if raw["closure_max_err"] > CLOSURE_TOLERANCE:
            problems.append("layer spans do not add up to the traced op "
                            f"wall time (max error {raw['closure_max_err']})")
    metrics = {}
    for name, unit, _ in specs:
        if name not in values:
            problems.append(f"metric {name} was not recorded")
            continue
        v = float(values[name])
        if not math.isfinite(v):
            problems.append(f"metric {name} is not finite")
        metrics[name] = {"value": v, "unit": unit}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems


def describe(raw, result):
    """Human-readable lines: every metric with its unit and kind, sample
    counts for the percentiles, and the traced run's closure per op type."""
    trace = int(raw["trace"]) == 1
    specs = PER_LAYER if trace else END_TO_END
    lines = []
    for name, unit, kind in specs:
        m = result["metrics"].get(name)
        if m is not None:
            lines.append(f"  {name:34s} {m['value']:>16.6g} {unit:8s} {kind}")
    if not trace:
        wall = timing_summary(raw, "samples_ms")
        for op, (n, p50, _, tail) in timing_summary(raw).items():
            note = "" if tail is not None and tail >= 90 else \
                "  (p90 has fewer than 10 samples beyond it)"
            lines.append(f"  {op}: n={n}, highest supported percentile "
                         f"p{tail if tail is not None else '-'}{note}; "
                         f"cpu ms p50={p50:.6g} (not gated); "
                         f"wall ms p50={wall[op][1]:.6g} p90={wall[op][2]:.6g}")
        medians = ", ".join(
            f"{name}={per_step(raw, name, 50.0):.6g}"
            for name in ("modeled_op_s", "modeled_j_per_gb", "energy_saving_x"))
        lines.append(f"  per-step medians (not gated): {medians}")
    else:
        closure = raw["closure"]
        for op in OP_TYPES:
            wall = closure.get(f"{op}.wall_s")
            if not wall:
                continue
            lines.append(
                f"  traced {op}: n={len(wall)} wall={sum(wall) / len(wall):.6f}s"
                f" layers={sum(closure[op + '.layers_s']) / len(wall):.6f}s"
                f" unattributed="
                f"{sum(closure[op + '.unattributed_s']) / len(wall):.6f}s")
        lines.append("  core.trace_overhead_s includes the pipeline overlap "
                     "the serial layer-by-layer replay gives up")
    return lines
