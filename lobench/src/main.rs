//! Open-loop ReTwis benchmark for the aggregated LambdaObjects cluster.
//!
//! ```text
//! lobench --workload <post-fanout|timeline-read|big-records> --seed <n>
//!         --seconds <s> --trace <0|1> [--limit-ms <ms>]
//! ```
//!
//! Builds the cluster (3 storage nodes, 3 coordinators, RF 3, 500 µs
//! links, synced WAL), loads a seeded follow graph, drives the workload
//! open-loop for `--seconds`, audits every timeline for exactly-once
//! delivery, probes redelivery, and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics and writes the span log. See
//! `README.md` beside this package for the workloads and metrics.

mod check;
mod cluster;
mod drive;
mod graph;
mod layers;
mod procfs;
mod trace;
mod workload;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_store::StoreClient;

use crate::cluster::Bench;
use crate::drive::{Outcome, Sample, Window};
use crate::graph::Graph;
use crate::layers::{ratio, Counts, Delta, Metric, Snap};
use crate::trace::SpanLog;
use crate::workload::{Reads, Spec};

/// Cluster set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Author/follower pairs the redelivery probe uses.
const PROBE_PAIRS: usize = 8;
/// A run whose generator lateness p99 over its windows exceeds this is
/// invalid.
const LAG_LIMIT_MS: f64 = 20.0;
/// Most windows measured in one run: `--seconds`, then up to two more half
/// as long.
const MAX_WINDOWS: u64 = 3;
/// Host steal above which a second of the window is not quiet.
const QUIET_STEAL: f64 = 0.02;
/// Share of `--seconds` that must be quiet for a run to stop after its
/// first window.
const QUIET_SHARE: f64 = 0.8;
/// Share of `--seconds` the timings are taken over at least. A run stops
/// after a later window once this many seconds were quiet; when fewer were
/// after the last window, the least stolen of the others make up the rest.
const MEASURED_SHARE: f64 = 0.4;
/// This package's directory: `cargo run` names it in `CARGO_MANIFEST_DIR`;
/// otherwise the run is taken to start at the repository root.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(|| PathBuf::from("lobench"), PathBuf::from)
}

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    limit_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let num = |flag: &str, default: Option<f64>| -> Result<f64, String> {
        match get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: not a number: {v}")),
            None => default.ok_or(format!("missing {flag}")),
        }
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = workload::spec(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds = num("--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let seed = get("--seed").ok_or("missing --seed")?;
    Ok(Args {
        workload,
        seed: seed.parse().map_err(|_| format!("--seed: not an integer: {seed}"))?,
        seconds,
        trace: num("--trace", Some(0.0))? != 0.0,
        limit_ms: num("--limit-ms", Some(500.0))?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lobench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = package_dir().join(".run");
    let data = run_dir.join(format!("{}-{}", args.workload.name, std::process::id()));
    let code = run(&args, &run_dir, &data);
    let _ = std::fs::remove_dir_all(&data);
    std::process::exit(code);
}

/// Nearest-rank percentile `p` of `v` (0 when empty).
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(v: Vec<f64>) -> f64 {
    percentile(v, 50.0)
}

/// Latencies (ms) of successful operations of one kind.
fn latencies(w: &Window, write: bool) -> Vec<f64> {
    w.samples
        .iter()
        .filter(|s| s.write == write && s.outcome == Outcome::Ok)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect()
}

/// Seconds, out of `share` of `seconds`, rounded up.
fn share_of(share: f64, seconds: f64) -> usize {
    (share * seconds).ceil() as usize
}

/// Seconds of `w` whose host steal is at most [`QUIET_STEAL`].
fn quiet_count(w: &Window) -> usize {
    w.seconds.iter().filter(|s| s.steal <= QUIET_STEAL).count()
}

/// The seconds the timings are taken over, as a mask over the window's
/// seconds: the quiet ones, or, when fewer than [`MEASURED_SHARE`] of
/// `seconds` are, that many of the least stolen.
fn measured_seconds(w: &Window, seconds: f64) -> Vec<bool> {
    let need = share_of(MEASURED_SHARE, seconds);
    if quiet_count(w) >= need {
        return w.seconds.iter().map(|s| s.steal <= QUIET_STEAL).collect();
    }
    let mut order: Vec<usize> = (0..w.seconds.len()).collect();
    order.sort_by(|&a, &b| w.seconds[a].steal.total_cmp(&w.seconds[b].steal));
    let mut mask = vec![false; w.seconds.len()];
    order.into_iter().take(need).for_each(|k| mask[k] = true);
    mask
}

/// Whether sample `s` was due in a second `mask` selects.
fn in_mask(mask: &[bool], s: &Sample) -> bool {
    let k = s.due.as_secs() as usize;
    mask.get(k.min(mask.len().saturating_sub(1))).copied().unwrap_or(false)
}

/// Percentile `p` (ms) of the successful operations of one kind that were
/// due in the measured seconds.
fn measured_pct_ms(w: &Window, mask: &[bool], write: bool, p: f64) -> f64 {
    let v = w
        .samples
        .iter()
        .filter(|s| s.write == write && s.outcome == Outcome::Ok && in_mask(mask, s))
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    percentile(v, p)
}

/// Process CPU milliseconds in the measured seconds per operation due in
/// them.
fn measured_cpu_ms_per_op(w: &Window, mask: &[bool]) -> f64 {
    let cpu: f64 = w.seconds.iter().zip(mask).filter(|(_, &m)| m).map(|(s, _)| s.cpu_ms).sum();
    ratio(cpu, w.samples.iter().filter(|s| in_mask(mask, s)).count() as f64)
}

fn lag_p99_ms(w: &Window) -> f64 {
    percentile(w.lag_us.iter().map(|&u| u as f64 / 1e3).collect(), 99.0)
}

/// Build the cluster `times` times, keeping the last one; returns it with
/// every set-up's seconds.
fn set_up(graph: &Arc<Graph>, data: &Path, threads: usize, times: usize) -> (Bench, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for k in 0..times {
        let t = Instant::now();
        let b = cluster::build(graph, &data.join(format!("cluster-{k}")), threads);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = bench.replace(b) {
            old.cluster.shutdown();
        }
    }
    (bench.expect("at least one set-up"), setup_s)
}

/// The untraced windows and what was read around them.
struct Measured {
    /// Every window, appended in order.
    window: Window,
    /// Counters before the first window.
    before: Snap,
    /// Counters after the last window.
    after: Snap,
    /// Peak resident set size after the first window, in MiB: later windows
    /// only add data, so it is read before they run.
    peak_rss_mb: f64,
}

/// The untraced windows: the seeded schedule for `--seconds`, then, while
/// too few of the seconds were quiet ([`QUIET_SHARE`] of `--seconds` after
/// the first window, [`MEASURED_SHARE`] after a later one) or the generator
/// ran late, the next schedule for half as long appended. A traced run,
/// whose per-layer figures are not gated, measures the first only.
fn measure(bench: &Bench, clients: &[StoreClient], args: &Args) -> Measured {
    let before = layers::snap(bench, clients);
    let mut window = Window::default();
    let mut peak_rss_mb = 0.0;
    let windows = if args.trace { 1 } else { MAX_WINDOWS };
    for k in 0..windows {
        let seconds = if k == 0 { args.seconds } else { args.seconds / 2.0 };
        let ops = workload::schedule(&args.workload, args.seed.wrapping_add(k), seconds);
        window.extend(drive::run(bench, &args.workload, clients, &ops, None));
        if k == 0 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        let (quiet, lag) = (quiet_count(&window), lag_p99_ms(&window));
        let share = if k == 0 { QUIET_SHARE } else { MEASURED_SHARE };
        if (quiet >= share_of(share, args.seconds) && lag <= LAG_LIMIT_MS) || k + 1 == windows {
            break;
        }
        eprintln!(
            "lobench: {quiet} quiet seconds, generator lag p99 {lag:.1} ms: measuring another window"
        );
    }
    Measured { window, before, after: layers::snap(bench, clients), peak_rss_mb }
}

/// The traced part of a `--trace 1` run: the same schedule again with
/// spans on, then the layer probes. Returns the metrics and any wrong
/// outputs of the traced window.
fn traced(
    bench: &Bench,
    clients: &[StoreClient],
    args: &Args,
    untraced: &Window,
    data: &Path,
    span_path: &Path,
) -> (Vec<Metric>, Vec<String>) {
    let log = Arc::new(SpanLog::new());
    let ops = workload::schedule(&args.workload, args.seed, args.seconds);
    let w = drive::run(bench, &args.workload, clients, &ops, Some(Arc::clone(&log)));
    let mut wrong = w.wrong.clone();
    if w.undrained > 0 {
        wrong.push(format!("{} traced requests never completed", w.undrained));
    }
    let mut probes = layers::Probes {
        dir: data,
        log: &log,
        spec: &args.workload,
        graph: &bench.graph,
        seed: args.seed,
        out: Vec::new(),
    };
    probes.net(&w.requests, &w.replies);
    probes.scheduler();
    probes.kv();
    probes.engine();
    probes.vm();
    let mut out = probes.out;
    for (write, name) in
        [(true, "trace.overhead_pct.write_p50"), (false, "trace.overhead_pct.read_p50")]
    {
        let (plain, traced) = (median(latencies(untraced, write)), median(latencies(&w, write)));
        out.push((name, "%", 100.0 * ratio(traced - plain, plain)));
    }
    // A traced post is a root with server stages under it: its self time
    // is the client + network share, its server children the rest.
    let spans = log.spans();
    let posts: HashSet<u64> =
        spans.iter().filter(|s| s.name == "op.create_post").map(|s| s.id).collect();
    let mut server_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("server.") && posts.contains(&s.parent)) {
        *server_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let (client_net, server): (Vec<f64>, Vec<f64>) = trace::self_times(&spans)
        .into_iter()
        .filter_map(|(id, own)| server_ns.get(&id).map(|&srv| (own as f64 / 1e6, srv as f64 / 1e6)))
        .unzip();
    out.push(("trace.posts_traced", "count", server.len() as f64));
    out.push(("trace.post_client_net_ms", "ms", median(client_net)));
    out.push(("trace.post_server_ms", "ms", median(server)));
    if let Err(e) = log.write(span_path) {
        eprintln!("lobench: writing {}: {e}", span_path.display());
    }
    (out, wrong)
}

fn run(args: &Args, run_dir: &Path, data: &Path) -> i32 {
    let spec = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.clamp(1, 2);
    let graph = Arc::new(Graph::generate(graph::GRAPH_SEED));
    let (bench, setup_s) = set_up(&graph, data, threads, if args.trace { 1 } else { SETUPS });
    let clients: Vec<StoreClient> = (0..threads).map(|_| bench.cluster.client()).collect();
    for c in &clients {
        match spec.reads {
            Reads::Primary => c.pin_reads_to_primary(true),
            Reads::Leased { edge_entries } => c.enable_edge_cache(edge_entries),
        }
    }
    let warm_posts =
        if spec.warm_bytes > 0 { bench.warm_up(spec, args.seed, &clients[0]) } else { 0 };
    let Measured { window, before, after, peak_rss_mb } = measure(&bench, &clients, args);
    let delta = Delta { a: &before, b: &after };
    let valid = lag_p99_ms(&window) <= LAG_LIMIT_MS;
    let measured = measured_seconds(&window, args.seconds);

    let count = |o: Outcome| window.samples.iter().filter(|s| s.outcome == o).count() as u64;
    let errors = count(Outcome::Shed) + count(Outcome::Deadline) + count(Outcome::Error);
    let wrong = count(Outcome::Wrong);
    let completed = window.samples.len() as f64;
    let limit = Duration::from_secs_f64(args.limit_ms / 1e3);
    let good: Vec<&drive::Sample> =
        window.samples.iter().filter(|s| s.outcome == Outcome::Ok && s.latency <= limit).collect();

    let span_path = run_dir.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    let (mut per_layer, traced_wrong) = if args.trace {
        let n = Counts {
            ops: completed,
            writes: count_where(&window, |s| s.write && s.outcome == Outcome::Ok),
            reads: count_where(&window, |s| !s.write),
        };
        let mut m = layers::counter_metrics(&delta, &n);
        m.push(("net.run_queue_depth_max", "count", window.queue_depth_max as f64));
        m.push(("proc.threads_max", "count", window.threads_max as f64));
        m.push(("gen.lag_p99_ms", "ms", lag_p99_ms(&window)));
        let (mut t, wrong) = traced(&bench, &clients, args, &window, data, &span_path);
        m.append(&mut t);
        (m, wrong)
    } else {
        (Vec::new(), Vec::new())
    };

    // Audit every timeline, then probe redelivery on accounts of its own.
    let ledger = bench.ledger.lock().expect("ledger lock").clone();
    let problems = match bench.read_all_timelines() {
        Ok(timelines) => check::audit(&graph, &ledger, &timelines),
        Err(e) => vec![e],
    };
    let reexec = bench.redelivery_probe(PROBE_PAIRS);
    if args.trace {
        let reexec_count = reexec.as_ref().map_or(-1.0, |&n| n as f64);
        per_layer.push(("core.redelivery_reexec", "count", reexec_count));
        let acked_bytes: f64 = ledger
            .iter()
            .filter(|p| p.status == check::PostStatus::Acked)
            .map(|p| ((12 + spec.msg_bytes) * (2 + graph.followers[p.author].len())) as f64)
            .sum();
        let disk = procfs::dir_bytes(bench.cluster.core.base_dir()) as f64;
        per_layer.push(("kv.space_amp", "ratio", ratio(disk, acked_bytes * 3.0)));
    }
    clients.iter().for_each(StoreClient::shutdown);
    bench.cluster.shutdown();

    let wrong_outputs = wrong as usize + traced_wrong.len() + problems.len();
    let correct = wrong_outputs == 0 && reexec.is_ok() && window.undrained == 0;
    for p in window.wrong.iter().chain(&traced_wrong).chain(&problems).take(20) {
        eprintln!("lobench: WRONG OUTPUT (workload {}, seed {}): {p}", spec.name, args.seed);
    }
    if let Err(e) = &reexec {
        eprintln!("lobench: redelivery probe failed (seed {}): {e}", args.seed);
    }
    let (writes, reads) = (latencies(&window, true), latencies(&window, false));
    let meta = [
        ("workload", format!("\"{}\"", spec.name)),
        ("seed", args.seed.to_string()),
        ("git_rev", format!("\"{}\"", procfs::git_revision(&package_dir().join("..")))),
        ("nproc", nproc.to_string()),
        ("clients", threads.to_string()),
        ("offered_ops_s", spec.rate.to_string()),
        ("write_share", spec.write_share.to_string()),
        ("msg_bytes", spec.msg_bytes.to_string()),
        ("seconds", args.seconds.to_string()),
        ("limit_ms", args.limit_ms.to_string()),
        ("write_samples", writes.len().to_string()),
        ("read_samples", reads.len().to_string()),
        ("write_p99_ms", percentile(writes.clone(), 99.0).to_string()),
        ("read_p99_ms", percentile(reads.clone(), 99.0).to_string()),
        ("write_max_ms", percentile(writes, 100.0).to_string()),
        ("read_max_ms", percentile(reads, 100.0).to_string()),
        ("errors", errors.to_string()),
        ("dropped", window.dropped.to_string()),
        ("wrong_outputs", wrong_outputs.to_string()),
        ("undrained", window.undrained.to_string()),
        ("warmup_posts", warm_posts.to_string()),
        ("setup_s_each", format!("{setup_s:?}")),
        ("steal_frac", delta.steal_frac().to_string()),
        ("gen_lag_p99_ms", lag_p99_ms(&window).to_string()),
        ("windows", window.windows.to_string()),
        ("windows_s", window.seconds.len().to_string()),
        ("quiet_s", quiet_count(&window).to_string()),
        ("measured_s", measured.iter().filter(|&&m| m).count().to_string()),
        ("valid", valid.to_string()),
        ("redelivery_reexec", reexec.as_ref().map_or("null".into(), u64::to_string)),
        ("spans", if args.trace { format!("\"{}\"", span_path.display()) } else { "null".into() }),
    ];
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"run\": {{{}}}}}", meta.join(", "));
    if !valid {
        eprintln!(
            "lobench: run invalid: generator lag p99 above {LAG_LIMIT_MS} ms over its windows"
        );
        return 3;
    }

    let metrics: Vec<Metric> = if args.trace {
        per_layer
    } else {
        vec![
            ("setup_s", "s", median(setup_s)),
            ("write_p50_ms", "ms", measured_pct_ms(&window, &measured, true, 50.0)),
            ("write_p95_ms", "ms", measured_pct_ms(&window, &measured, true, 95.0)),
            ("read_p50_ms", "ms", measured_pct_ms(&window, &measured, false, 50.0)),
            ("read_p95_ms", "ms", measured_pct_ms(&window, &measured, false, 95.0)),
            ("goodput_ops_s", "1/s", good.len() as f64 / window.busy.as_secs_f64()),
            ("good_frac", "ratio", good.len() as f64 / window.attempted as f64),
            ("cpu_ms_per_op", "ms", measured_cpu_ms_per_op(&window, &measured)),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        window.attempted,
        errors + wrong + window.dropped + window.undrained,
        metrics.join(", ")
    );
    0
}

fn count_where(w: &Window, f: impl Fn(&&drive::Sample) -> bool) -> f64 {
    w.samples.iter().filter(f).count() as f64
}
