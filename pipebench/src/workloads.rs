//! The two workloads. Each drives the pipeline only through the public
//! functions the `gfd` CLI calls: the `gfd_graph::io` loader, `seq_dis` /
//! `par_dis` / `par_dis_steal`, `seq_cover_discovered`, and
//! `ViolationMonitor::{new, validate_entity, apply}`.
//!
//! Every workload returns the same end-to-end figures (set-up time, three
//! stage times and peak memory, see [`Outcome`]) so every workload is
//! compared under the same metric names; what each stage is differs by
//! workload and is printed under its own name next to the result.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gfd_core::{
    peak_rss_bytes, seq_cover_discovered, seq_dis, DiscoveredGfd, DiscoveryConfig, DiscoveryResult,
};
use gfd_datagen::powerlaw::{power_law_graph, PowerLawConfig};
use gfd_datagen::scenario::{bench_scenario, ScenarioConfig};
use gfd_graph::{AttrId, Graph, LabelId, NodeId, Value};
use gfd_incremental::{GraphState, MonitorRule, UpdateBatch, ViolationMonitor};
use gfd_logic::{Gfd, Literal, Rhs};
use gfd_parallel::{
    par_cover, par_dis, par_dis_steal, ClusterConfig, ExecMode, ParDisReport, StealConfig,
};
use gfd_pattern::PLabel;

use crate::affinity::Cpus;
use crate::checks;
use crate::expected::{self, Expected};
use crate::inputs::{graph_text, load_text, Fnv, Rng, DEFAULT_SEED};
use crate::stats;
use crate::trace::Tracer;

/// Worker threads for the parallel runtimes: the benchmark machine has two
/// cores, and load comes from this one process.
const WORKERS: usize = 2;
/// Graph loads timed at the start of `mine-tiny` and again before every
/// mining cycle (about a millisecond each). Its `setup_s` is their median,
/// which so spans the run as the pass times do: the shared host's speed
/// shifts within seconds.
const LOAD_SETUPS: usize = 5;
/// Fewest repetitions of the sequential and steal passes per run; a run
/// of the benchmark's usual length holds several times as many.
const MIN_PASSES: usize = 3;
/// Fewest update batches per run on `monitor-large`.
const MIN_BATCHES: usize = 3;
/// `validate_entity` reads between two batches. Reads are cheap beside a
/// batch, so many: after [`MIN_BATCHES`] the p99 read latency has 60
/// samples beyond it, which keeps its own sampling error small.
const READS_PER_BATCH: usize = 2000;
/// Pre-generated batches; a run stops early if it exhausts them.
const BATCHES: usize = 256;
/// Dropped catalog rules checked for implication by the cover.
const IMPLIED_SAMPLE: usize = 32;
/// Post-loop reads compared with a monitor built from scratch.
const CHECKED_READS: usize = 16;

pub const WORKLOADS: [&str; 2] = ["mine-tiny", "monitor-large"];

/// Operations attempted and failed, with a reason per failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Charges a failure to one operation.
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Charges a failed check (or error) to one operation.
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.fail(e)).ok()
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// Median set-up time.
    pub setup_s: f64,
    /// The workload's three stage figures, in milliseconds.
    pub stages_ms: [f64; 3],
    /// Process peak RSS at the end of the timed phase.
    pub peak_rss_mb: f64,
    /// The same figures under the names a reader knows them by, plus
    /// anything else worth printing: `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Input provenance and output fingerprints, one line each.
    pub notes: Vec<String>,
    pub ops: Ops,
}

/// Mining configuration of the `perf` binary for the classic scenarios.
fn perf_cfg(nodes: usize) -> DiscoveryConfig {
    let mut cfg = DiscoveryConfig::new(4, (nodes / 40).max(10));
    cfg.max_edges = 3;
    cfg.max_lhs_size = 2;
    cfg.values_per_attr = 2;
    cfg.max_catalog_literals = 12;
    cfg.wildcard_min_labels = 0;
    cfg.wildcard_root = false;
    cfg.max_matches_per_pattern = 50_000;
    cfg.max_patterns_per_level = 600;
    cfg
}

/// Mining configuration of the `perf` binary for the power-law family,
/// at the approximate-rule confidence its `--validate` mode uses.
fn catalog_cfg(nodes: usize) -> DiscoveryConfig {
    let mut cfg = DiscoveryConfig::new(3, (nodes / 100).max(100));
    cfg.max_edges = 2;
    cfg.max_lhs_size = 1;
    cfg.values_per_attr = 2;
    cfg.max_catalog_literals = 8;
    cfg.wildcard_min_labels = 0;
    cfg.wildcard_root = false;
    cfg.max_matches_per_pattern = 400_000;
    cfg.max_patterns_per_level = 64;
    cfg.max_negative_candidates = 8;
    cfg.min_confidence = 0.5;
    cfg
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(f64::NAN)
}

fn mean(v: &[f64]) -> f64 {
    stats::mean(v).unwrap_or(f64::NAN)
}

fn peak_rss_mb() -> f64 {
    peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Loads `text` through the loader, recording the graph layer's counters.
fn traced_load(text: &str, tracer: &Tracer) -> Result<Graph, String> {
    let t = Instant::now();
    let g = tracer.span("graph.load", || load_text(text))?;
    let dt = secs(t);
    tracer.median("graph.load_s", dt);
    tracer.median("graph.load_mb_per_s", text.len() as f64 / 1e6 / dt);
    let bs = g.build_stats();
    tracer.mean("graph.bytes", bs.graph_bytes as f64);
    tracer.mean("graph.reallocs", bs.builder_reallocs as f64);
    Ok(g)
}

/// Loads the graph [`LOAD_SETUPS`] times, appending each load time to
/// `times`; returns the last graph.
fn timed_loads(text: &str, times: &mut Vec<f64>, tracer: &Tracer) -> Result<Graph, String> {
    let mut g = None;
    for _ in 0..LOAD_SETUPS {
        let t = Instant::now();
        g = Some(traced_load(text, tracer)?);
        times.push(secs(t));
    }
    Ok(g.expect("at least one set-up"))
}

/// Sequential mining, recording the mining layer's counters.
fn traced_seq_dis(g: &Graph, cfg: &DiscoveryConfig, tracer: &Tracer) -> DiscoveryResult {
    let r = tracer.span("core.seq_dis", || seq_dis(g, cfg));
    if tracer.enabled() {
        let s = &r.stats;
        let total = s.total_time.as_secs_f64();
        let matching = s.matching_time.as_secs_f64();
        let spawning = s.spawning_time.as_secs_f64();
        let evaluation = s.validation_time.as_secs_f64();
        tracer.median("core.match_s", matching);
        tracer.median(
            "core.spawn_harvest_s",
            s.spawning_harvest_time.as_secs_f64(),
        );
        tracer.median("core.spawn_merge_s", s.spawning_merge_time.as_secs_f64());
        tracer.median("core.catalog_s", s.catalog_time.as_secs_f64());
        tracer.median("core.lattice_s", s.lattice_time.as_secs_f64());
        tracer.median(
            "core.unattributed_s",
            (total - matching - spawning - evaluation).max(0.0),
        );
        tracer.mean("core.spawn_work", s.spawning_work as f64);
        tracer.mean("core.eval_work", s.evaluation_work as f64);
        tracer.mean("core.patterns_verified", s.patterns_verified as f64);
        tracer.mean("core.candidates", s.hspawn.candidates as f64);
        tracer.mean(
            "core.rules_per_candidate",
            r.gfds.len() as f64 / s.hspawn.candidates.max(1) as f64,
        );
        tracer.mean("core.negatives", r.negative_count() as f64);
    }
    r
}

/// Checks the input fingerprint against the recorded one (default seed
/// only) and renders the provenance line.
fn provenance(
    workload: &str,
    seed: u64,
    g: &Graph,
    text: &str,
    stream: Option<u64>,
    want: &Expected,
    ops: &mut Ops,
) -> String {
    let text_hash = Fnv::of(text.as_bytes());
    let got = (
        g.node_count(),
        g.edge_count(),
        text_hash,
        stream.unwrap_or(0),
    );
    let line = format!(
        "input {workload} seed={seed} nodes={} edges={} text_bytes={} text_hash={:016x} stream_hash={}",
        got.0,
        got.1,
        text.len(),
        got.2,
        stream.map_or("-".into(), |h| format!("{h:016x}")),
    );
    if seed == DEFAULT_SEED {
        let recorded = (want.nodes, want.edges, want.text_hash, want.stream_hash);
        if got != recorded {
            ops.fail(format!(
                "{workload}: input fingerprint {got:x?} differs from the recorded {recorded:x?}"
            ));
        }
    }
    line
}

/// Checks a cover of `sigma` (subset, dropped sample implied) and records
/// the cover layer's counters; the traced run adds the grouped cover's.
fn check_cover(
    sigma: &[DiscoveredGfd],
    cover: &[DiscoveredGfd],
    seed: u64,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Option<usize> {
    ops.check(checks::cover_is_subset(sigma, cover));
    let sampled = ops.check(tracer.span("cover.check_implied", || {
        checks::dropped_are_implied(sigma, cover, IMPLIED_SAMPLE, seed)
    }));
    tracer.mean("cover.in_rules", sigma.len() as f64);
    tracer.mean("cover.out_rules", cover.len() as f64);
    tracer.mean(
        "cover.removed_share",
        1.0 - cover.len() as f64 / sigma.len().max(1) as f64,
    );
    if tracer.enabled() {
        // The grouped cover (Lemma 6) on one simulated worker: its work and
        // group counters show what grouping would save the cover step.
        let rules: Vec<Gfd> = sigma.iter().map(|d| d.gfd.clone()).collect();
        ops.attempt();
        let grouped = tracer.span("cover.par_cover", || {
            par_cover(&rules, 1, ExecMode::Simulated, true)
        });
        if let Some(rep) = ops.check(grouped.map_err(|e| format!("par_cover: {e}"))) {
            tracer.mean("cover.grouped_work", rep.work as f64);
            tracer.mean("cover.groups", rep.groups as f64);
        }
    }
    sampled
}

/// Records one parallel runtime's counters under `parallel.<rt>.*`.
fn record_parallel(tracer: &Tracer, names: &[&'static str; 6], rep: &ParDisReport) {
    tracer.mean(names[0], rep.work_makespan as f64);
    tracer.mean(names[1], rep.work_busy as f64);
    tracer.mean(
        names[2],
        rep.work_busy as f64 / (WORKERS as f64 * rep.work_makespan.max(1) as f64),
    );
    tracer.mean(names[3], rep.barriers as f64);
    tracer.mean(names[4], rep.comm_bytes as f64);
    tracer.mean(names[5], rep.result.stats.retries as f64);
}

const STEAL_COUNTERS: [&str; 6] = [
    "parallel.steal.work_makespan",
    "parallel.steal.work_busy",
    "parallel.steal.busy_share",
    "parallel.steal.waves",
    "parallel.steal.comm_bytes",
    "parallel.steal.retries",
];
const BARRIER_COUNTERS: [&str; 6] = [
    "parallel.barrier.work_makespan",
    "parallel.barrier.work_busy",
    "parallel.barrier.busy_share",
    "parallel.barrier.waves",
    "parallel.barrier.comm_bytes",
    "parallel.barrier.retries",
];

/// `mine-tiny`: `tiny` mined by `seq_dis`, by `par_dis_steal` with the
/// CLI's tuned config, and by `par_dis` (the CLI's `--parallel 2` path);
/// the three rule sets must be bit-identical.
///
/// Stages: 1 = sequential, 2 = steal runtime, 3 = barrier runtime.
pub fn mine_tiny(seed: u64, budget: Duration, tracer: &Tracer) -> Result<Outcome, String> {
    let text = graph_text(&bench_scenario(&ScenarioConfig::tiny()), seed);
    let mut ops = Ops::default();
    // Single-threaded stages (the loads and the sequential pass) take the
    // allowed CPUs in turn, one per cycle; see `affinity`.
    let cpus = Cpus::current();
    let mut cycle = 0;
    cpus.pin(cycle);
    let mut loads = Vec::new();
    let g = timed_loads(&text, &mut loads, tracer)?;
    let prov = provenance(
        "mine-tiny",
        seed,
        &g,
        &text,
        None,
        &expected::MINE_TINY,
        &mut ops,
    );
    let g = Arc::new(g);
    let cfg = perf_cfg(g.node_count());
    let scfg = StealConfig::tuned(WORKERS, ExecMode::Threads, g.size());
    let ccfg = ClusterConfig::new(WORKERS, ExecMode::Threads);

    let (mut seq, mut steal, mut barrier) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<DiscoveryResult> = None;
    let mut against_reference = |ops: &mut Ops, r: &DiscoveryResult, what: &str| match &reference {
        None => {
            reference = Some(DiscoveryResult {
                gfds: r.gfds.clone(),
                stats: r.stats.clone(),
            })
        }
        Some(want) => {
            ops.check(checks::identical(&want.gfds, &r.gfds, g.interner(), what));
        }
    };
    // The budget is spent on alternating sequential and steal passes; the
    // one barrier pass comes on top of it.
    let start = Instant::now();
    let mut barrier_time = Duration::ZERO;
    while seq.len() < MIN_PASSES || start.elapsed() - barrier_time < budget {
        cycle += 1;
        cpus.pin(cycle);
        timed_loads(&text, &mut loads, tracer)?;
        let t = Instant::now();
        let r = traced_seq_dis(&g, &cfg, tracer);
        seq.push(secs(t));
        ops.attempt();
        against_reference(&mut ops, &r, "repeated sequential mining");
        cpus.unpin();

        let t = Instant::now();
        let r = tracer.span("parallel.steal", || par_dis_steal(&g, &cfg, &scfg));
        steal.push(secs(t));
        ops.attempt();
        if let Some(rep) = ops.check(r.map_err(|e| format!("par_dis_steal: {e}"))) {
            record_parallel(tracer, &STEAL_COUNTERS, &rep);
            against_reference(&mut ops, &rep.result, "par_dis_steal");
        }

        // The barrier runtime takes ~10× the sequential time here, and
        // its single samples repeat within a few percent: one per run,
        // after the first cycle so the other samples span the run.
        if barrier.is_empty() {
            let t = Instant::now();
            let r = tracer.span("parallel.barrier", || par_dis(&g, &cfg, &ccfg));
            barrier_time = t.elapsed();
            barrier.push(barrier_time.as_secs_f64());
            ops.attempt();
            if let Some(rep) = ops.check(r.map_err(|e| format!("par_dis: {e}"))) {
                record_parallel(tracer, &BARRIER_COUNTERS, &rep);
                against_reference(&mut ops, &rep.result, "par_dis");
            }
        }
    }
    let peak = peak_rss_mb();

    let reference = reference.expect("at least one pass");
    let fp = checks::rule_set_fingerprint(&reference.gfds, g.interner());
    if seed == DEFAULT_SEED {
        ops.check(checks::fingerprint_matches(
            fp,
            expected::MINE_TINY.rules,
            "mine-tiny mining",
        ));
    }

    // A mining pass is a batch job, so its figure is the mean time per
    // pass over the run (the inverse of passes per second). On a shared
    // host pass times are skewed and drift; the mean of a run's passes
    // repeats across runs better than their median does.
    let (seq_s, steal_s) = (mean(&seq), mean(&steal));
    Ok(Outcome {
        setup_s: median(&loads),
        stages_ms: [seq_s * 1e3, steal_s * 1e3, median(&barrier) * 1e3],
        peak_rss_mb: peak,
        named: vec![
            ("mine_s", seq_s, "s"),
            ("mine_steal2_s", steal_s, "s"),
            ("mine_parallel2_s", median(&barrier), "s"),
            ("mine_p50_s", median(&seq), "s"),
            ("mine_steal2_p50_s", median(&steal), "s"),
            ("passes", seq.len() as f64, "count"),
            ("rules_mined", reference.gfds.len() as f64, "count"),
            ("negatives", reference.negative_count() as f64, "count"),
        ],
        notes: vec![prov, format!("output rules_fingerprint={fp:016x}")],
        ops,
    })
}

/// The seeded read and write streams of `monitor-large`.
struct Streams {
    /// `queries[b]`: the entities read before batch `b`.
    queries: Vec<Vec<NodeId>>,
    batches: Vec<UpdateBatch>,
    hash: u64,
}

/// A node of `label`'s class (any node for a wildcard).
fn node_of(g: &Graph, label: PLabel, rng: &mut Rng) -> NodeId {
    match label {
        PLabel::Is(l) if !g.nodes_with_label(l).is_empty() => {
            let class = g.nodes_with_label(l);
            class[rng.below(class.len())]
        }
        _ => NodeId::from_index(rng.below(g.node_count())),
    }
}

/// Seeded streams over the initial graph, catalog and violations. Reads
/// target a node of a uniformly drawn rule's pivot class. Each batch
/// holds two `SetAttr` repairs (a violating match of a rule whose
/// consequence is a constant gets that constant), two `SetAttr` writes of
/// an observed value on such nodes (which mostly add violations), two
/// `AddEdge`s between them and two `RemoveEdge`s of distinct edges of the
/// initial graph.
fn streams(g: &Graph, rules: &[Gfd], mon: &ViolationMonitor, seed: u64) -> Streams {
    let mut rng = Rng::new(seed, 3);
    // Rules with a constant consequence and at least one violation, with
    // their violation counts.
    let repairable: Vec<(usize, usize)> = rules
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.rhs(), Rhs::Lit(Literal::Const { .. })))
        .map(|(i, _)| (i, mon.violations(i).count()))
        .filter(|&(_, n)| n > 0)
        .collect();
    let pivot_label = |rng: &mut Rng| {
        let q = rules[rng.below(rules.len())].pattern();
        q.node_label(q.pivot())
    };
    let attrs: Vec<(AttrId, Vec<Value>)> = (0..g.interner().attr_count())
        .map(|a| {
            let a = AttrId::from_index(a);
            let values = g.attr_value_frequencies(a).into_iter().map(|(v, _)| v);
            (a, values.collect::<Vec<Value>>())
        })
        .filter(|(_, vs)| !vs.is_empty())
        .collect();
    let edge_labels: Vec<LabelId> = g
        .edges()
        .iter()
        .map(|e| e.label)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut removed = BTreeSet::new();
    let mut h = Fnv::default();
    let mut queries = Vec::with_capacity(BATCHES);
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let reads: Vec<NodeId> = (0..READS_PER_BATCH)
            .map(|_| {
                let l = pivot_label(&mut rng);
                node_of(g, l, &mut rng)
            })
            .collect();
        let mut b = UpdateBatch::new();
        for _ in 0..2 {
            if repairable.is_empty() {
                break;
            }
            let (i, n) = repairable[rng.below(repairable.len())];
            let m = mon.violations(i).nth(rng.below(n)).expect("counted");
            if let Rhs::Lit(Literal::Const { var, attr, value }) = rules[i].rhs() {
                b.set_attr(m[var], attr, value);
            }
        }
        for _ in 0..2 {
            let l = pivot_label(&mut rng);
            let v = node_of(g, l, &mut rng);
            let (a, values) = &attrs[rng.below(attrs.len())];
            b.set_attr(v, *a, values[rng.below(values.len())]);
        }
        for _ in 0..2 {
            let (l1, l2) = (pivot_label(&mut rng), pivot_label(&mut rng));
            let (s, d) = (node_of(g, l1, &mut rng), node_of(g, l2, &mut rng));
            b.add_edge(s, d, edge_labels[rng.below(edge_labels.len())]);
        }
        let mut removes = 0;
        while removes < 2 {
            let e = g.edges()[rng.below(g.edge_count())];
            if removed.insert((e.src, e.dst, e.label)) {
                b.remove_edge(e.src, e.dst, e.label);
                removes += 1;
            }
        }
        for v in &reads {
            h.u64(v.index() as u64);
        }
        for u in b.ops() {
            h.bytes(format!("{u:?}").as_bytes());
        }
        queries.push(reads);
        batches.push(b);
    }
    Streams {
        queries,
        batches,
        hash: h.0,
    }
}

/// The violating matches of `v` in `fresh`'s stored sets, per rule, in
/// the `validate_entity` shape.
fn stored_verdicts(fresh: &ViolationMonitor, v: NodeId) -> Vec<(usize, Vec<Vec<NodeId>>)> {
    (0..fresh.rules().len())
        .filter_map(|i| {
            let pivot = fresh.rules()[i].pattern().pivot();
            let ms: Vec<Vec<NodeId>> = fresh
                .violations(i)
                .filter(|m| m[pivot] == v)
                .map(<[NodeId]>::to_vec)
                .collect();
            (!ms.is_empty()).then_some((i, ms))
        })
        .collect()
}

/// `monitor-large`: the 1M-node `large` graph loaded from text, a catalog
/// mined at confidence 0.5, and one closed-loop client interleaving
/// seeded `validate_entity` reads with seeded update batches.
///
/// Set-up also covers the catalog, the cover layer's only workload.
///
/// Stages: 1 = read p50, 2 = read p99, 3 = batch p50 (submit to delta).
pub fn monitor_large(seed: u64, budget: Duration, tracer: &Tracer) -> Result<Outcome, String> {
    let text = gfd_graph::io::to_text(&power_law_graph(&PowerLawConfig::large()));
    let mut ops = Ops::default();

    // One set-up: at ~17 s it is too long to repeat within a run.
    let t = Instant::now();
    let g = traced_load(&text, tracer)?;
    let cfg = catalog_cfg(g.node_count());
    let catalog = traced_seq_dis(&g, &cfg, tracer);
    ops.attempt();
    if catalog.gfds.is_empty() {
        return Err("monitor-large: the catalog is empty".into());
    }
    // The CLI's `discover --confidence 0.5 --cover` step. The monitor
    // watches the whole catalog, as the bound-validation benchmark does;
    // the cover is checked and measured here.
    let cover = tracer.span("cover.seq_cover", || seq_cover_discovered(&catalog.gfds));
    ops.attempt();
    let rules: Vec<Gfd> = catalog.gfds.iter().map(|d| d.gfd.clone()).collect();
    let monitored: Vec<MonitorRule> = rules.iter().cloned().map(MonitorRule::Base).collect();
    let tb = Instant::now();
    let mut mon = tracer.span("incremental.monitor_new", || {
        ViolationMonitor::new(&g, monitored.clone())
    });
    tracer.median("incremental.monitor_build_s", secs(tb));
    let setup_s = secs(t);

    let s = streams(&g, &rules, &mon, seed);
    let prov = provenance(
        "monitor-large",
        seed,
        &g,
        &text,
        Some(s.hash),
        &expected::MONITOR_LARGE,
        &mut ops,
    );
    drop(text);
    let covered = check_cover(&catalog.gfds, &cover, seed, tracer, &mut ops);
    let catalog_fp = checks::rule_set_fingerprint(&catalog.gfds, g.interner());
    if seed == DEFAULT_SEED {
        ops.check(checks::fingerprint_matches(
            catalog_fp,
            expected::MONITOR_LARGE.rules,
            "monitor-large catalog",
        ));
    }
    // The traced run replays the batches on a shadow state to time the
    // update path's two halves; the untraced run keeps no second copy.
    let shadow_base = tracer.enabled().then(|| GraphState::from_graph(&g));
    drop(g);

    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut violating, mut first_work) = (0usize, None);
    let (mut added, mut removed) = (0usize, 0usize);
    let work0 = mon.stats().validation_work;
    // The client is not pinned as mining is (see `affinity`): moving it to
    // another CPU at each batch widened the read tail, the p99 spreading
    // 0.23 over ten runs against 0.10-0.14 unpinned.
    let start = Instant::now();
    let mut b = 0;
    while b < s.batches.len() && (b < MIN_BATCHES || start.elapsed() < budget) {
        for &v in &s.queries[b] {
            let t = Instant::now();
            let verdicts = tracer.span("bound.validate_entity", || mon.validate_entity(v));
            reads.push(secs(t));
            ops.attempt();
            violating += usize::from(!verdicts.is_empty());
            if reads.len() == 1000 {
                first_work = Some(mon.stats().validation_work - work0);
            }
        }
        let before = mon.stats();
        let t = Instant::now();
        let delta = tracer.span("incremental.apply", || mon.apply(&s.batches[b]));
        writes.push(secs(t));
        ops.attempt();
        let after = mon.stats();
        tracer.mean(
            "incremental.bound_queries",
            (after.bound_queries - before.bound_queries) as f64,
        );
        tracer.mean(
            "incremental.fallbacks",
            (after.bound_fallbacks - before.bound_fallbacks) as f64,
        );
        tracer.mean("incremental.delta_added", delta.added() as f64);
        tracer.mean("incremental.delta_removed", delta.removed() as f64);
        added += delta.added();
        removed += delta.removed();
        b += 1;
    }
    let peak = peak_rss_mb();
    let read_work = mon.stats().validation_work - work0;
    tracer.mean(
        "bound.validation_work",
        first_work.unwrap_or(read_work) as f64,
    );
    tracer.mean(
        "bound.work_per_query",
        read_work as f64 / reads.len().max(1) as f64,
    );
    tracer.mean(
        "bound.violating_share",
        violating as f64 / reads.len().max(1) as f64,
    );

    if let Some(mut shadow) = shadow_base {
        for batch in &s.batches[..b] {
            let t = Instant::now();
            tracer.span("incremental.shadow_apply_batch", || {
                shadow.apply_batch(batch);
            });
            tracer.median("incremental.apply_batch_s", secs(t));
            let t = Instant::now();
            let frozen = tracer.span("incremental.shadow_freeze", || shadow.freeze());
            tracer.median("incremental.freeze_s", secs(t));
            drop(frozen);
        }
    }

    // Untimed: the maintained sets against a monitor built from scratch on
    // the final graph, and a few reads against its stored sets.
    if added + removed == 0 {
        ops.fail("monitor-large: no batch changed any violation".into());
    }
    let fresh = tracer.span("incremental.check_monitor_new", || {
        ViolationMonitor::new(mon.graph(), monitored)
    });
    ops.check(checks::same_violations(&mon, &fresh));
    let mut rng = Rng::new(seed, 4);
    for _ in 0..CHECKED_READS {
        let q = rules[rng.below(rules.len())].pattern();
        let v = node_of(mon.graph(), q.node_label(q.pivot()), &mut rng);
        ops.attempt();
        let mut got: Vec<(usize, Vec<Vec<NodeId>>)> = mon
            .validate_entity(v)
            .into_iter()
            .map(|e| (e.rule, e.violations))
            .collect();
        for (_, ms) in &mut got {
            ms.sort();
        }
        if got != stored_verdicts(&fresh, v) {
            ops.fail(format!(
                "validate_entity({}) disagrees with the stored violations",
                v.index()
            ));
        }
    }

    let read_p99 = stats::tail(&reads, 0.99);
    if read_p99.is_none() {
        ops.fail(format!(
            "monitor-large: {} reads are too few for a p99",
            reads.len()
        ));
    }
    let read_p50 = median(&reads);
    let write_p50 = median(&writes);
    Ok(Outcome {
        setup_s,
        stages_ms: [
            read_p50 * 1e3,
            read_p99.unwrap_or(f64::NAN) * 1e3,
            write_p50 * 1e3,
        ],
        peak_rss_mb: peak,
        named: vec![
            ("validate_p50_ms", read_p50 * 1e3, "ms"),
            ("validate_p99_ms", read_p99.unwrap_or(f64::NAN) * 1e3, "ms"),
            ("update_p50_ms", write_p50 * 1e3, "ms"),
            ("update_mean_ms", mean(&writes) * 1e3, "ms"),
            ("reads", reads.len() as f64, "count"),
            ("batches", writes.len() as f64, "count"),
            ("catalog_rules", rules.len() as f64, "count"),
            ("rules_in_cover", cover.len() as f64, "count"),
            (
                "dropped_rules_checked",
                covered.unwrap_or(0) as f64,
                "count",
            ),
            ("violations_added", added as f64, "count"),
            ("violations_removed", removed as f64, "count"),
            ("final_violations", mon.total_violations() as f64, "count"),
        ],
        notes: vec![prov, format!("output rules_fingerprint={catalog_fp:016x}")],
        ops,
    })
}
