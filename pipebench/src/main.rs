//! Pipeline benchmark for the GFD workspace.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload mine-tiny|monitor-large --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run is one workload in its own process. It generates its inputs
//! from `--seed`, measures for about `--seconds` seconds (never fewer than
//! the minimum repetitions a workload needs), checks every output, prints
//! the named figures, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` the workload runs twice, untraced and then
//! traced, for half the time each, and the metrics are the per-layer
//! counters, the self time of each layer and the tracing overhead on each
//! end-to-end metric. The traced run also writes its spans and counters to
//! `.bench_trace/<workload>-seed<N>.json`. The exit code is 0 only when
//! every check passed; 2 for a usage error.

// Denied everywhere but the affinity system call in `affinity`, which
// allows it for itself.
#![deny(unsafe_code)]

mod affinity;
mod checks;
mod expected;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::time::Duration;

use report::{Metric, Report};
use trace::Tracer;
use workloads::{Outcome, WORKLOADS};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("stage1_ms", "ms"),
    ("stage2_ms", "ms"),
    ("stage3_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. A layer a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("graph.load_s", "s"),
    ("graph.load_mb_per_s", "MB/s"),
    ("graph.bytes", "B"),
    ("graph.reallocs", "count"),
    ("core.match_s", "s"),
    ("core.spawn_harvest_s", "s"),
    ("core.spawn_merge_s", "s"),
    ("core.catalog_s", "s"),
    ("core.lattice_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.spawn_work", "count"),
    ("core.eval_work", "count"),
    ("core.patterns_verified", "count"),
    ("core.candidates", "count"),
    ("core.rules_per_candidate", "ratio"),
    ("core.negatives", "count"),
    ("cover.in_rules", "count"),
    ("cover.out_rules", "count"),
    ("cover.removed_share", "ratio"),
    ("cover.grouped_work", "count"),
    ("cover.groups", "count"),
    ("parallel.steal.work_makespan", "count"),
    ("parallel.steal.work_busy", "count"),
    ("parallel.steal.busy_share", "ratio"),
    ("parallel.steal.waves", "count"),
    ("parallel.steal.comm_bytes", "B"),
    ("parallel.steal.retries", "count"),
    ("parallel.barrier.work_makespan", "count"),
    ("parallel.barrier.work_busy", "count"),
    ("parallel.barrier.busy_share", "ratio"),
    ("parallel.barrier.waves", "count"),
    ("parallel.barrier.comm_bytes", "B"),
    ("parallel.barrier.retries", "count"),
    ("incremental.monitor_build_s", "s"),
    ("incremental.apply_batch_s", "s"),
    ("incremental.freeze_s", "s"),
    ("incremental.bound_queries", "count"),
    ("incremental.fallbacks", "count"),
    ("incremental.delta_added", "count"),
    ("incremental.delta_removed", "count"),
    ("bound.validation_work", "count"),
    ("bound.work_per_query", "count"),
    ("bound.violating_share", "ratio"),
    ("self.bench_s", "s"),
    ("self.graph_s", "s"),
    ("self.core_s", "s"),
    ("self.cover_s", "s"),
    ("self.parallel_s", "s"),
    ("self.incremental_s", "s"),
    ("self.bound_s", "s"),
    ("overhead.setup_s", "s"),
    ("overhead.stage1_ms", "ms"),
    ("overhead.stage2_ms", "ms"),
    ("overhead.stage3_ms", "ms"),
    ("overhead.peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("pipebench: {msg}");
    eprintln!(
        "usage: pipebench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => usage(&format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => usage("--seconds must be in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace must be 0 or 1"),
            },
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Runs the workload; a run that cannot produce its outputs at all (input
/// that does not load, an empty catalog) exits without a result line.
fn run(args: &Args, seconds: f64, tracer: &Tracer) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let outcome = tracer.span("bench.run", || match args.workload.as_str() {
        "mine-tiny" => workloads::mine_tiny(args.seed, budget, tracer),
        "monitor-large" => workloads::monitor_large(args.seed, budget, tracer),
        other => unreachable!("workload `{other}` passed argument parsing"),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("pipebench: {e}");
        std::process::exit(1)
    })
}

fn end_to_end(o: &Outcome) -> [f64; 5] {
    [
        o.setup_s,
        o.stages_ms[0],
        o.stages_ms[1],
        o.stages_ms[2],
        o.peak_rss_mb,
    ]
}

fn per_layer(value: impl Fn(&str) -> f64) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.into(),
            value: value(name),
            unit: unit.into(),
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let phase_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run(&args, phase_seconds, &Tracer::new(false));

    let (outcome, metrics) = if args.trace {
        let tracer = Tracer::new(true);
        let mut traced = run(&args, phase_seconds, &tracer);
        let counters = tracer.counters();
        let self_time = tracer.self_time_by_layer();
        let (off, on) = (end_to_end(&untraced), end_to_end(&traced));
        let layers = per_layer(|name| {
            if let Some(layer) = name
                .strip_prefix("self.")
                .and_then(|n| n.strip_suffix("_s"))
            {
                self_time.get(layer).copied().unwrap_or(0.0)
            } else if let Some(e2e) = name.strip_prefix("overhead.") {
                let i = END_TO_END
                    .iter()
                    .position(|&(n, _)| n == e2e)
                    .expect("overhead names an end-to-end metric");
                on[i] - off[i]
            } else {
                counters.get(name).copied().unwrap_or(0.0)
            }
        });
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("pipebench: writing {path}: {e}"),
        }
        traced.ops.attempted += untraced.ops.attempted;
        traced.ops.failed += untraced.ops.failed;
        traced.ops.failures.extend(untraced.ops.failures);
        (traced, layers)
    } else {
        let m = END_TO_END
            .iter()
            .zip(end_to_end(&untraced))
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            })
            .collect();
        (untraced, m)
    };

    for line in &outcome.notes {
        println!("{line}");
    }
    let ops = &outcome.ops;
    for (name, value, unit) in &outcome.named {
        println!("metric {} {name} = {value} {unit}", args.workload);
    }
    println!(
        "metric {} failed_ops_share = {} ratio ({} of {} operations)",
        args.workload,
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    for f in &ops.failures {
        println!("check FAILED: {f}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check FAILED: a metric is not a finite number");
    }
    let report = Report {
        correct: ops.failed == 0 && finite,
        attempted: ops.attempted.max(1),
        failed: ops.failed + u64::from(!finite),
        metrics,
    };
    println!("{}", report.to_json());
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::parse::{json, Json};

    fn names(v: &Json) -> Vec<String> {
        let Json::Arr(items) = v else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| {
                let Json::Obj(f) = m else {
                    panic!("expected an object")
                };
                match &f.iter().find(|(k, _)| k == "name").expect("name").1 {
                    Json::Str(s) => s.clone(),
                    other => panic!("name is {other:?}"),
                }
            })
            .collect()
    }

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let Json::Obj(top) = json(&text).expect("valid JSON") else {
            panic!("not an object")
        };
        let get = |k: &str| &top.iter().find(|(n, _)| n == k).expect(k).1;
        let want = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect();
        let e2e: Vec<String> = want(&END_TO_END);
        let layers: Vec<String> = want(&PER_LAYER);
        assert_eq!(names(get("end_to_end")), e2e);
        assert_eq!(names(get("per_layer")), layers);
        assert_eq!(names(get("workloads")), WORKLOADS.map(String::from));
        let mut all = layers.clone();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), PER_LAYER.len(), "per-layer names are unique");
    }
}
