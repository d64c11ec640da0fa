//! End-to-end and per-layer benchmark of the exhaustive explorer, the
//! seeded campaign runner and the stdio campaign service.
//!
//! ```text
//! rsim-perfbench --workload explore-racing|campaign-racing|service-stdio
//!     --seed N --seconds S --trace 0|1 --worker PATH --out DIR [--tiny]
//! ```
//!
//! One process runs one workload, so its peak RSS and CPU time are its
//! own. With `--trace 0` the measured call repeats for `--seconds` (at
//! least three times) and the last stdout line reports the end-to-end
//! metrics as medians over those calls. With `--trace 1` untraced and
//! traced calls alternate, spans recorded around each layer call give
//! the per-layer metrics, and the spans go to `DIR/trace-*.json`.
//! Every output is checked against a pinned reference; a mismatch is a
//! failed operation. `--worker` is the release CLI binary that service
//! workers run, and `--tiny` shrinks every size for the self-test.

mod layers;
mod measure;
mod workloads;

use measure::{median, sample, Sample, SetupTimer, Tracer};
use rsim_smr::analyze::{self, LintConfig};
use rsim_smr::campaign::{preflight_campaign, CampaignCheckpoint};
use rsim_smr::service::{
    encode_frame, merge_report, read_frame, JobQueue, JournalRecord, ServiceOutcome, ShardResult,
    WorkerMsg,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Sizes, CAMPAIGN_M, EXPLORE_M, SERVICE_WORKERS};

/// Fewest measured calls a run makes, however short `--seconds` is.
const MIN_CALLS: usize = 3;
/// Fewest untraced/traced pairs a traced run makes.
const MIN_PAIRS: usize = 2;
/// Repetitions of the frame and merge timings.
const LAYER_REPS: usize = 20;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    Explore,
    Campaign,
    Service,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::Explore, "explore-racing"),
        (Workload::Campaign, "campaign-racing"),
        (Workload::Service, "service-stdio"),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is named")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    worker: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut tiny = false;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--tiny" => tiny = true,
            key @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--worker" | "--out") => {
                let value = raw.get(i + 1).ok_or(format!("{key} needs a value"))?;
                values.insert(&key[2..], value);
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let name = get("workload")?;
    let workload = Workload::ALL
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(w, _)| *w)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        tiny,
        worker: PathBuf::from(get("worker")?),
        out: PathBuf::from(get("out")?),
    })
}

/// What one run reports: operations attempted and failed, and metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let fresh = self.metrics.insert(name, (value, unit)).is_none();
        assert!(fresh, "metric {name} reported twice");
    }

    /// Counts one checked operation.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One measured call.
struct Call<T> {
    traced: bool,
    sample: Sample,
    out: T,
}

/// Repeats `call` for `seconds` (and at least `MIN_CALLS` times), with
/// `between` after each call, outside the timing. In a traced run
/// untraced and traced calls alternate, `MIN_PAIRS` at least.
fn measure<T>(
    a: &Args,
    tracer: &mut Tracer,
    mut between: impl FnMut(),
    mut call: impl FnMut(&mut Tracer, usize) -> T,
) -> Vec<Call<T>> {
    let start = std::time::Instant::now();
    let modes: &[bool] = if a.trace { &[false, true] } else { &[false] };
    let min_rounds = if a.trace { MIN_PAIRS } else { MIN_CALLS };
    let mut calls = Vec::new();
    while calls.len() < min_rounds * modes.len() || start.elapsed().as_secs_f64() < a.seconds {
        for &traced in modes {
            tracer.on = traced;
            let index = calls.len();
            let (sample, out) = sample(|| call(tracer, index));
            calls.push(Call {
                traced,
                sample,
                out,
            });
            between();
        }
    }
    tracer.on = a.trace;
    calls
}

fn plain_median(calls: &[Call<impl Sized>], of: fn(&Sample) -> f64) -> f64 {
    median(
        &calls
            .iter()
            .filter(|c| !c.traced)
            .map(|c| of(&c.sample))
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics every workload reports. The peak RSS is the
/// median per-call peak, or `children_peak_mb` if that is larger.
fn end_to_end(
    rep: &mut Report,
    setup: &[f64],
    calls: &[Call<impl Sized>],
    states: f64,
    runs: f64,
    children_peak_mb: f64,
) {
    let wall = plain_median(calls, |s| s.wall);
    let peak_mb = plain_median(calls, |s| s.peak_mb).max(children_peak_mb);
    rep.metric("setup_s", median(setup), "s");
    rep.metric("wall_s", wall, "s");
    rep.metric("states_per_s", states / wall, "1/s");
    rep.metric("runs_per_s", runs / wall, "1/s");
    rep.metric("cpu_s", plain_median(calls, |s| s.cpu), "s");
    rep.metric("peak_rss_mb", peak_mb, "MiB");
    let list = |of: fn(&Sample) -> f64| {
        calls
            .iter()
            .filter(|c| !c.traced)
            .map(|c| format!("{:.4}", of(&c.sample)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"samples\": {{\"setup_us\": [{}], \"wall_s\": [{}], \"cpu_s\": [{}], \"peak_rss_mb\": [{}]}}}}",
        setup.iter().map(|s| format!("{:.2}", s * 1e6)).collect::<Vec<_>>().join(", "),
        list(|s| s.wall),
        list(|s| s.cpu),
        list(|s| s.peak_mb)
    );
}

fn tracing_overhead(rep: &mut Report, calls: &[Call<impl Sized>]) {
    let traced = median(
        &calls
            .iter()
            .filter(|c| c.traced)
            .map(|c| c.sample.wall)
            .collect::<Vec<_>>(),
    );
    rep.metric(
        "trace.overhead_s",
        traced - plain_median(calls, |s| s.wall),
        "s",
    );
}

/// The walks' span names and the per-op metrics they give.
const WALK_OPS: [(&str, &str); 5] = [
    ("system.step", "system.step_ns"),
    ("system.fork", "system.fork_ns"),
    ("fingerprint.config", "fingerprint.config_ns"),
    ("fingerprint.insert", "fingerprint.insert_ns"),
    ("hb.independent", "hb.independent_ns"),
];

/// Per-op medians (ns) of the walk spans recorded after `mark`, by metric.
fn op_medians(tracer: &Tracer, mark: usize) -> [(&'static str, f64); 5] {
    WALK_OPS.map(|(span, metric)| (metric, tracer.per_op_median_ns(mark, span)))
}

/// Walks, pre-flight and sampled runs on the workload's own system.
/// Returns the summed per-op medians: the explore-stack cost of a state.
fn own_system_layers(
    a: &Args,
    m: usize,
    depth: usize,
    sizes: Sizes,
    threads: usize,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> f64 {
    let sys = workloads::system(m);
    let mark = tracer.mark();
    layers::walk_ops(&sys, depth, a.seed, threads, tracer);
    let medians = op_medians(tracer, mark);
    for (metric, ns) in medians {
        rep.metric(metric, ns, "ns");
    }
    let mark = tracer.mark();
    layers::analyze_ops(&sys, tracer);
    rep.metric(
        "analyze.preflight_ms",
        tracer.per_op_median_ns(mark, "analyze.preflight") * 1e-6,
        "ms",
    );
    rep.metric(
        "analyze.interfere_us",
        tracer.per_op_median_ns(mark, "analyze.interfere") * 1e-3,
        "us",
    );
    let (p50, p99) = layers::sampled_runs(
        &workloads::campaign_config(sizes.runs, a.seed),
        m,
        a.seed,
        tracer,
    );
    rep.metric("campaign.run_us_p50", p50, "us");
    rep.metric("campaign.run_us_p99", p99, "us");
    medians.iter().map(|(_, ns)| ns).sum()
}

/// Facts of one exploration for the explore-layer metrics.
struct ExploreFacts {
    visited: usize,
    pruned: usize,
    reduction: f64,
    wall: f64,
    cpu: f64,
    threads: usize,
    /// Growth of the peak RSS over the exploration.
    rss_growth_mb: f64,
}

/// Explore-layer metrics. `per_state_ns` sums the per-op medians of
/// walks of the explored system; what they leave of the CPU time is the
/// engine's own frontier, merge and barrier cost.
fn explore_layers(f: &ExploreFacts, per_state_ns: f64, rep: &mut Report) {
    rep.metric("explore.configs_visited", f.visited as f64, "count");
    rep.metric("explore.pruned", f.pruned as f64, "count");
    rep.metric("explore.reduction_factor", f.reduction, "ratio");
    rep.metric(
        "explore.overhead_share",
        1.0 - f.visited as f64 * per_state_ns * 1e-9 / f.cpu,
        "ratio",
    );
    rep.metric(
        "explore.idle_share",
        1.0 - f.cpu / (f.wall * f.threads as f64),
        "ratio",
    );
    rep.metric(
        "explore.bytes_per_state",
        f.rss_growth_mb * 1_048_576.0 / f.visited as f64,
        "B",
    );
}

/// A small traced exploration that fills in the explore layers on a
/// workload that does not explore.
fn explore_probe(a: &Args, sizes: Sizes, threads: usize, tracer: &mut Tracer, rep: &mut Report) {
    let sys = workloads::system(EXPLORE_M);
    let (s, out) = sample(|| {
        tracer.span("explore.explore_parallel", 1, |_| {
            workloads::explore_call(&sys, sizes.depth, threads)
        })
    });
    let pin = workloads::explore_pin(sizes.depth);
    rep.check(out.as_ref().is_ok_and(|r| workloads::explore_ok(r, pin)));
    let r = out.unwrap_or_else(|e| panic!("probe exploration failed: {e}"));
    let facts = ExploreFacts {
        visited: r.configs_visited,
        pruned: r.pruned,
        reduction: r.reduction_factor(),
        wall: s.wall,
        cpu: s.cpu,
        threads,
        rss_growth_mb: s.peak_mb - s.start_mb,
    };
    let mark = tracer.mark();
    layers::walk_ops(&sys, sizes.depth, a.seed, threads, tracer);
    explore_layers(
        &facts,
        op_medians(tracer, mark).iter().map(|(_, ns)| ns).sum(),
        rep,
    );
}

/// Campaign-layer metrics from the campaign spans recorded after `mark`.
fn campaign_layers(tracer: &Tracer, mark: usize, rep: &mut Report) {
    let ms = |name| tracer.per_op_median_ns(mark, name) * 1e-6;
    rep.metric("shrink.ms", ms("shrink"), "ms");
    rep.metric("bundle.store_ms", ms("bundle.store"), "ms");
    rep.metric("campaign.report_json_ms", ms("campaign.report_json"), "ms");
}

/// A service call's outcome, its workers' CPU seconds and its directory.
type ServiceCall = Result<(ServiceOutcome, f64, PathBuf), String>;

fn service_call(
    spec: &rsim_smr::service::ServiceSpec,
    dir: PathBuf,
    worker: &Path,
    tracer: &mut Tracer,
) -> ServiceCall {
    let cpu0 = measure::cpu_children();
    let outcome = tracer
        .span("service.run_service", 1, |_| {
            workloads::service_call(spec, &dir, worker)
        })
        .map_err(|e| e.to_string())?;
    Ok((outcome, measure::cpu_children() - cpu0, dir))
}

/// Checks each service call against the in-process reference bytes:
/// every lease is an operation, a requeued or quarantined unit a failed
/// one, and so is a merged report that differs from the reference.
fn check_service_calls(calls: &[Call<ServiceCall>], reference: &str, rep: &mut Report) {
    for call in calls {
        match &call.out {
            Ok((outcome, _, _)) => {
                rep.attempted += outcome.stats.leases as u64 + 1;
                rep.failed += workloads::service_failures(
                    &outcome.stats,
                    &outcome.report.to_json(),
                    reference,
                );
            }
            Err(e) => {
                eprintln!("service call failed: {e}");
                rep.check(false);
            }
        }
    }
}

/// Service-layer metrics from the last traced service call, whose
/// shards are re-journaled, framed and merged to time those layers.
fn service_layers(
    calls: &[Call<ServiceCall>],
    campaign_wall: f64,
    spec: &rsim_smr::service::ServiceSpec,
    tracer: &mut Tracer,
    rep: &mut Report,
) {
    let traced = calls
        .iter()
        .rev()
        .find(|c| c.traced)
        .expect("a traced run makes a traced call");
    let (outcome, worker_cpu, dir) = traced
        .out
        .as_ref()
        .expect("the traced service call succeeded");
    let wall = plain_median(calls, |s| s.wall);
    let stats = &outcome.stats;
    rep.metric("service.units", stats.units as f64, "count");
    rep.metric("service.leases", stats.leases as f64, "count");
    rep.metric("service.requeues", stats.requeues as f64, "count");
    rep.metric("service.worker_cpu_s", *worker_cpu, "s");
    rep.metric(
        "service.fleet_idle_share",
        1.0 - worker_cpu / (traced.sample.wall * SERVICE_WORKERS as f64),
        "ratio",
    );
    rep.metric(
        "service.unit_ms",
        wall * SERVICE_WORKERS as f64 / stats.units as f64 * 1e3,
        "ms",
    );
    rep.metric("service.overhead_ratio", wall / campaign_wall, "ratio");

    // Each worker's terminal unit checkpoint is its shard payload.
    let units = spec.partition();
    let shards: Vec<ShardResult> = tracer.span("checkpoint.load", units.len() as u64, |_| {
        units
            .iter()
            .map(|unit| {
                let path = dir
                    .join("state")
                    .join(format!("unit-{}.checkpoint.json", unit.id));
                let checkpoint =
                    CampaignCheckpoint::load(&path).expect("every unit left its checkpoint");
                ShardResult {
                    unit: unit.id,
                    records: checkpoint
                        .completed
                        .into_iter()
                        .map(|(i, r)| (unit.index_base + i, r))
                        .collect(),
                    fault_records: Vec::new(),
                    fingerprints: checkpoint.fingerprints,
                    degraded_runs: 0,
                    cache_truncated: false,
                }
            })
            .collect()
    });
    let (mut queue, _) =
        JobQueue::open(&dir.join("replay-journal"), usize::MAX).expect("a fresh journal opens");
    let mark = tracer.mark();
    for shard in &shards {
        let record = JournalRecord::Result {
            shard: shard.clone(),
        };
        let ok = tracer
            .span("queue.append", 1, |_| queue.append(&record))
            .is_ok();
        rep.check(ok);
    }
    rep.metric(
        "queue.append_us",
        tracer.per_op_median_ns(mark, "queue.append") * 1e-3,
        "us",
    );

    let largest = shards
        .iter()
        .map(|shard| {
            WorkerMsg::Result {
                unit: shard.unit,
                shard: shard.clone(),
            }
            .to_json()
        })
        .max_by_key(String::len)
        .expect("the service produced shards");
    let mark = tracer.mark();
    for _ in 0..LAYER_REPS {
        let back = tracer.span("proto.frame", 1, |_| {
            let frame = encode_frame(black_box(&largest));
            read_frame(&mut frame.as_bytes()).ok().flatten()
        });
        rep.check(back.as_deref() == Some(largest.as_str()));
    }
    rep.metric(
        "proto.frame_us",
        tracer.per_op_median_ns(mark, "proto.frame") * 1e-3,
        "us",
    );

    let mark = tracer.mark();
    let expected = outcome.report.to_json();
    for _ in 0..LAYER_REPS {
        let merged = tracer.span("merge", 1, |_| {
            merge_report(&spec.config, black_box(&shards), 0)
        });
        rep.check(merged.to_json() == expected);
    }
    rep.metric(
        "merge.ms",
        tracer.per_op_median_ns(mark, "merge") * 1e-6,
        "ms",
    );
}

/// A small traced service call, with its in-process reference, that
/// fills in the service layers on a workload without a service. Returns
/// the span mark of the reference campaign.
fn service_probe(
    a: &Args,
    sizes: Sizes,
    work_dir: &Path,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> usize {
    let spec = workloads::service_spec(sizes, a.seed);
    let calls: Vec<Call<ServiceCall>> = ["probe-plain", "probe-traced"]
        .iter()
        .map(|name| {
            let traced = *name == "probe-traced";
            tracer.on = traced;
            let (sample, out) =
                sample(|| service_call(&spec, work_dir.join(name), &a.worker, tracer));
            Call {
                traced,
                sample,
                out,
            }
        })
        .collect();
    tracer.on = true;
    let mark = tracer.mark();
    let (s, reference) =
        sample(|| workloads::campaign_call(&spec.config, &work_dir.join("probe-corpus"), tracer));
    rep.attempted += reference.operations();
    rep.failed += reference.failures(workloads::campaign_pin(&spec.config));
    check_service_calls(&calls, &reference.json, rep);
    service_layers(&calls, s.wall, &spec, tracer, rep);
    mark
}

fn run_explore(
    a: &Args,
    sizes: Sizes,
    probe: Sizes,
    threads: usize,
    work_dir: &Path,
    tracer: &mut Tracer,
    rep: &mut Report,
) {
    let mut setup = SetupTimer::new(|| {
        let sys = workloads::system(EXPLORE_M);
        black_box(analyze::analyze_system(
            &sys,
            &LintConfig::default(),
            analyze::DEFAULT_BUDGET,
        ));
        black_box(workloads::check(&sys));
    });
    let sys = workloads::system(EXPLORE_M);
    let calls = measure(
        a,
        tracer,
        || setup.between_calls(),
        |t, _| {
            t.span("explore.explore_parallel", 1, |_| {
                workloads::explore_call(&sys, sizes.depth, threads)
            })
        },
    );
    let pin = workloads::explore_pin(sizes.depth);
    for call in &calls {
        rep.check(
            call.out
                .as_ref()
                .is_ok_and(|r| workloads::explore_ok(r, pin)),
        );
    }
    let first = calls[0].out.as_ref().map_err(ToString::to_string);
    let visited = first.as_ref().map_or(0, |r| r.configs_visited);
    if !a.trace {
        end_to_end(rep, setup.samples(), &calls, visited as f64, 1.0, 0.0);
        return;
    }
    let r = first.expect("the exploration succeeded");
    tracing_overhead(rep, &calls);
    let facts = ExploreFacts {
        visited,
        pruned: r.pruned,
        reduction: r.reduction_factor(),
        wall: plain_median(&calls, |s| s.wall),
        cpu: plain_median(&calls, |s| s.cpu),
        threads,
        rss_growth_mb: calls[0].sample.peak_mb - calls[0].sample.start_mb,
    };
    let per_state_ns = own_system_layers(a, EXPLORE_M, sizes.depth, sizes, threads, tracer, rep);
    explore_layers(&facts, per_state_ns, rep);
    let mark = service_probe(a, probe, work_dir, tracer, rep);
    campaign_layers(tracer, mark, rep);
}

fn campaign_setup(a: &Args, sizes: Sizes) -> SetupTimer<impl FnMut()> {
    let seed_start = workloads::campaign_config(sizes.runs, a.seed).seed_start;
    SetupTimer::new(move || {
        let factory = |_seed: u64| workloads::system(CAMPAIGN_M);
        black_box(preflight_campaign(
            factory,
            seed_start,
            &LintConfig::default(),
        ))
        .expect("racing passes the pre-flight");
        black_box(workloads::check(&factory(seed_start)));
    })
}

fn run_campaign(
    a: &Args,
    sizes: Sizes,
    probe: Sizes,
    threads: usize,
    work_dir: &Path,
    tracer: &mut Tracer,
    rep: &mut Report,
) {
    let mut setup = campaign_setup(a, sizes);
    if a.trace {
        // First, so that its RSS growth is its own.
        explore_probe(a, probe, threads, tracer, rep);
    }
    let config = workloads::campaign_config(sizes.runs, a.seed);
    let mark = tracer.mark();
    let calls = measure(
        a,
        tracer,
        || setup.between_calls(),
        |t, i| workloads::campaign_call(&config, &work_dir.join(format!("corpus-{i}")), t),
    );
    let pin = workloads::campaign_pin(&config);
    for call in &calls {
        rep.attempted += call.out.operations();
        rep.failed += call.out.failures(pin);
    }
    let first = &calls[0].out.report;
    if !a.trace {
        end_to_end(
            rep,
            setup.samples(),
            &calls,
            first.total_steps as f64,
            first.total_runs as f64,
            0.0,
        );
        return;
    }
    tracing_overhead(rep, &calls);
    campaign_layers(tracer, mark, rep);
    own_system_layers(
        a,
        CAMPAIGN_M,
        workloads::BUDGET,
        sizes,
        threads,
        tracer,
        rep,
    );
    service_probe(a, probe, work_dir, tracer, rep);
}

fn run_service(
    a: &Args,
    sizes: Sizes,
    probe: Sizes,
    threads: usize,
    work_dir: &Path,
    tracer: &mut Tracer,
    rep: &mut Report,
) {
    let mut setup = campaign_setup(a, sizes);
    if a.trace {
        explore_probe(a, probe, threads, tracer, rep);
    }
    let spec = workloads::service_spec(sizes, a.seed);
    let calls = measure(
        a,
        tracer,
        || setup.between_calls(),
        |t, i| service_call(&spec, work_dir.join(format!("service-{i}")), &a.worker, t),
    );
    let workers_peak = measure::children_peak_rss_mb();
    let mark = tracer.mark();
    let (reference_sample, reference) = sample(|| {
        workloads::campaign_call(&spec.config, &work_dir.join("reference-corpus"), tracer)
    });
    rep.attempted += reference.operations();
    rep.failed += reference.failures(workloads::campaign_pin(&spec.config));
    check_service_calls(&calls, &reference.json, rep);
    if !a.trace {
        let r = &reference.report;
        end_to_end(
            rep,
            setup.samples(),
            &calls,
            r.total_steps as f64,
            r.total_runs as f64,
            workers_peak,
        );
        return;
    }
    tracing_overhead(rep, &calls);
    campaign_layers(tracer, mark, rep);
    service_layers(&calls, reference_sample.wall, &spec, tracer, rep);
    own_system_layers(
        a,
        CAMPAIGN_M,
        workloads::BUDGET,
        sizes,
        threads,
        tracer,
        rep,
    );
}

fn stamp(a: &Args, threads: usize) -> String {
    let env = |key: &str| {
        rsim_smr::json::escape(&std::env::var(key).unwrap_or_else(|_| "unknown".into()))
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"size\": \"{}\", \"nproc\": {threads}, \
         \"service_workers\": {SERVICE_WORKERS}, \"commit\": {}, \"rustc\": {}}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.tiny { "tiny" } else { "full" },
        env("RSIM_BENCH_COMMIT"),
        env("RSIM_BENCH_RUSTC"),
    )
}

fn write_trace(a: &Args, stamp: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let rows: Vec<String> = tracer
        .summary()
        .iter()
        .map(|(name, spans, ops, total, own)| {
            format!(
                "    {{\"name\": \"{name}\", \"spans\": {spans}, \"ops\": {ops}, \"total_s\": {total:.9}, \"self_s\": {own:.9}}}"
            )
        })
        .collect();
    let path = a
        .out
        .join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed));
    let text = format!(
        "{{\n  \"stamp\": {stamp},\n  \"layers\": [\n{}\n  ],\n  \"spans\": {}\n}}\n",
        rows.join(",\n"),
        tracer.spans_json()
    );
    std::fs::create_dir_all(&a.out)?;
    std::fs::write(&path, text)?;
    Ok(path)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (sizes, probe) = if a.tiny {
        (workloads::TINY, workloads::TINY)
    } else {
        (workloads::FULL, workloads::PROBE)
    };
    let stamp = stamp(&a, threads);
    println!("{{\"stamp\": {stamp}}}");

    let work_dir = a.out.join(format!("work_dir-{}", std::process::id()));
    let mut tracer = Tracer::new(a.trace);
    let mut rep = Report::default();
    match a.workload {
        Workload::Explore => {
            run_explore(&a, sizes, probe, threads, &work_dir, &mut tracer, &mut rep)
        }
        Workload::Campaign => {
            run_campaign(&a, sizes, probe, threads, &work_dir, &mut tracer, &mut rep)
        }
        Workload::Service => {
            run_service(&a, sizes, probe, threads, &work_dir, &mut tracer, &mut rep)
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    if a.trace {
        match write_trace(&a, &stamp, &tracer) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("rsim-perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_refuse_a_metric_twice() {
        let mut rep = Report::default();
        rep.metric("wall_s", 1.0, "s");
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rep.metric("wall_s", 2.0, "s")
        }));
        assert!(again.is_err());
    }
}
