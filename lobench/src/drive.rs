//! The open-loop window: one generator thread issues the seeded schedule at
//! its due instants through the client endpoints; every request is timed
//! from when it was due and every reply is checked as it arrives.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lambda_objects::{InvocationContext, InvokeError, ObjectId, Stage};
use lambda_retwis::account_id;
use lambda_store::{StoreClient, StoreRequest};
use lambda_vm::VmValue;

use crate::check;
use crate::cluster::{entries, Bench, Inflight};
use crate::trace::SpanLog;
use crate::workload::{Op, Spec, READ_LIMIT};

/// Generator safety valve: beyond this many outstanding requests an
/// arrival is dropped (and counted as failed) instead of queued.
const MAX_INFLIGHT: u64 = 4096;
/// In a traced window, every this-many-th post goes through a tracer
/// thread with a benchmark-chosen trace id.
const TRACE_EVERY: u64 = 8;
/// Trace ids the benchmark picks sit above the system's own counter.
const TRACE_BASE: u64 = 1 << 62;
/// Requests and replies kept from a traced window for the codec probe.
const CODEC_SAMPLES: usize = 256;

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Succeeded and, for a read, passed the check.
    Ok,
    /// A read whose result failed the check.
    Wrong,
    /// Refused by admission control.
    Shed,
    /// Ran out of its deadline budget.
    Deadline,
    /// Any other error.
    Error,
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `create_post` (true) or `get_timeline`.
    pub write: bool,
    /// When it was due, from the window start.
    pub due: Duration,
    /// From due instant to completion.
    pub latency: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// Everything one window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// Windows measured.
    pub windows: u64,
    /// From each window's start to its last completion, summed over windows.
    pub busy: Duration,
    /// Operations scheduled.
    pub attempted: u64,
    /// Arrivals dropped by the generator safety valve.
    pub dropped: u64,
    /// Requests still outstanding when the drain gave up.
    pub undrained: u64,
    /// How late the generator issued each request, in microseconds.
    pub lag_us: Vec<u64>,
    /// Descriptions of wrong read results.
    pub wrong: Vec<String>,
    /// Most threads alive in the process at any sample point.
    pub threads_max: u64,
    /// Deepest primary run queue at any sample point.
    pub queue_depth_max: u64,
    /// Requests kept for the codec probe.
    pub requests: Vec<StoreRequest>,
    /// Replies kept for the codec probe.
    pub replies: Vec<VmValue>,
    /// The window's seconds, by due time: second `k` holds the requests due
    /// from `k` to `k + 1` seconds after the window start.
    pub seconds: Vec<Second>,
}

/// CPU readings over one second of a window's schedule.
#[derive(Debug, Clone, Copy)]
pub struct Second {
    /// Share of host CPU time the hypervisor stole over this second and the
    /// one before it (a queue built up while the CPU was away drains into
    /// the next second).
    pub steal: f64,
    /// User + system CPU this process used in this second, in milliseconds.
    pub cpu_ms: f64,
}

/// Cumulative CPU readings at one instant.
#[derive(Debug, Clone, Copy)]
struct Tick {
    /// Host CPU jiffies stolen by the hypervisor.
    steal: u64,
    /// Host CPU jiffies in every state up to steal.
    total: u64,
    /// User + system CPU of this process, in milliseconds.
    cpu_ms: f64,
}

impl Tick {
    fn now() -> Tick {
        let (steal, total) = crate::procfs::host_steal();
        Tick { steal, total, cpu_ms: crate::procfs::process_cpu_ms() }
    }
}

/// The seconds of a window from ticks read at each whole second of its
/// schedule and once after its last request was sent.
fn seconds(ticks: &[Tick]) -> Vec<Second> {
    (1..ticks.len())
        .map(|k| {
            let (before, prev, end) = (ticks[k.saturating_sub(2)], ticks[k - 1], ticks[k]);
            let total = (end.total - before.total) as f64;
            Second {
                steal: if total > 0.0 { (end.steal - before.steal) as f64 / total } else { 0.0 },
                cpu_ms: end.cpu_ms - prev.cpu_ms,
            }
        })
        .collect()
}

impl Window {
    /// Append `later`, a window measured after this one: its seconds follow
    /// this window's, and its samples' due times shift with them.
    pub fn extend(&mut self, later: Window) {
        let shift = Duration::from_secs(self.seconds.len() as u64);
        self.samples.extend(later.samples.into_iter().map(|s| Sample { due: s.due + shift, ..s }));
        self.seconds.extend(later.seconds);
        self.windows += later.windows;
        self.busy += later.busy;
        self.attempted += later.attempted;
        self.dropped += later.dropped;
        self.undrained += later.undrained;
        self.lag_us.extend(later.lag_us);
        self.wrong.extend(later.wrong);
        self.threads_max = self.threads_max.max(later.threads_max);
        self.queue_depth_max = self.queue_depth_max.max(later.queue_depth_max);
    }
}

/// Completion-side state shared with the async callbacks.
struct Sink {
    start: Instant,
    graph: Arc<crate::graph::Graph>,
    ledger: Arc<Mutex<Vec<check::PostRecord>>>,
    samples: Mutex<Vec<Sample>>,
    wrong: Mutex<Vec<String>>,
    replies: Mutex<Vec<VmValue>>,
    inflight: Inflight,
    spans: Option<Arc<SpanLog>>,
}

impl Sink {
    /// Record the end of `op`; returns its root span id (0 untraced).
    fn complete(
        &self,
        op: Op,
        due: Instant,
        sent: Instant,
        seq: Option<u64>,
        r: Result<VmValue, InvokeError>,
    ) -> u64 {
        let done = Instant::now();
        let outcome = match &r {
            Ok(v) if !op.write => match v.as_list().map(|_| entries(v)) {
                Some(e) => match check::check_read(&self.graph, op.account, READ_LIMIT, &e) {
                    Ok(()) => Outcome::Ok,
                    Err(msg) => {
                        self.wrong.lock().expect("sink lock").push(msg);
                        Outcome::Wrong
                    }
                },
                None => {
                    self.wrong
                        .lock()
                        .expect("sink lock")
                        .push(format!("read of {}: not a list: {v:?}", op.account));
                    Outcome::Wrong
                }
            },
            Ok(_) => Outcome::Ok,
            Err(InvokeError::Overloaded(_)) => Outcome::Shed,
            Err(InvokeError::DeadlineExceeded) => Outcome::Deadline,
            Err(_) => Outcome::Error,
        };
        if let Some(seq) = seq {
            Bench::settle_post(&self.ledger, seq, r.is_ok());
        }
        if let (Some(_), Ok(v)) = (&self.spans, r) {
            let mut replies = self.replies.lock().expect("sink lock");
            if replies.len() < CODEC_SAMPLES {
                replies.push(v);
            }
        }
        self.samples.lock().expect("sink lock").push(Sample {
            write: op.write,
            due: due - self.start,
            latency: done - due,
            outcome,
        });
        let root = self.spans.as_ref().map_or(0, |log| {
            let root = log.record(
                0,
                if op.write { "op.create_post" } else { "op.get_timeline" },
                due,
                done,
            );
            log.record(root, "client.gen_lag", due, sent);
            root
        });
        self.inflight.release();
        root
    }
}

/// A post handed to a tracer thread.
struct TraceJob {
    op: Op,
    due: Instant,
    seq: u64,
    args: Vec<VmValue>,
    client: usize,
}

/// Run `ops` open-loop against `bench` through `clients`. With `spans`,
/// every operation gets a root span and every [`TRACE_EVERY`]-th post goes
/// through `StoreClient::invoke_ctx` with a chosen trace id, its server
/// stages read back from the storage nodes' span recorders.
pub fn run(
    bench: &Bench,
    spec: &Spec,
    clients: &[StoreClient],
    ops: &[Op],
    spans: Option<Arc<SpanLog>>,
) -> Window {
    let start = Instant::now() + Duration::from_millis(5);
    let sink = Arc::new(Sink {
        start,
        graph: Arc::clone(&bench.graph),
        ledger: Arc::clone(&bench.ledger),
        samples: Mutex::new(Vec::with_capacity(ops.len())),
        wrong: Mutex::default(),
        replies: Mutex::default(),
        inflight: Inflight::default(),
        spans: spans.clone(),
    });
    let mut w = Window { windows: 1, attempted: ops.len() as u64, ..Window::default() };
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<TraceJob>();
        let rx = Arc::new(Mutex::new(rx));
        if spans.is_some() {
            for _ in 0..2 {
                let (rx, sink) = (Arc::clone(&rx), Arc::clone(&sink));
                s.spawn(move || loop {
                    let job = rx.lock().expect("tracer lock").recv();
                    let Ok(job) = job else { break };
                    trace_post(bench, &clients[job.client], &sink, job);
                });
            }
        }
        let mut next_probe = start;
        let mut ticks = Vec::new();
        let mut next_tick = start;
        let last_due = start + ops.last().map_or(Duration::ZERO, |op| op.due);
        let mut posts = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let due = start + op.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            w.lag_us.push(sent.saturating_duration_since(due).as_micros() as u64);
            if sent >= next_probe {
                w.threads_max = w.threads_max.max(crate::procfs::threads());
                w.queue_depth_max = w.queue_depth_max.max(bench.primary.stats().run_queue_depth);
                next_probe += Duration::from_millis(100);
            }
            if sent >= next_tick && next_tick <= last_due {
                ticks.push(Tick::now());
                next_tick += Duration::from_secs(1);
            }
            if sink.inflight.get() >= MAX_INFLIGHT {
                w.dropped += 1;
                continue;
            }
            sink.inflight.acquire(u64::MAX);
            let object = ObjectId::new(account_id(op.account));
            let (method, args, seq) = if op.write {
                let seq = bench.register_post(op.account, spec.tag);
                let msg = check::message(spec.tag, seq, spec.msg_bytes);
                ("create_post", vec![VmValue::str(msg)], Some(seq))
            } else {
                ("get_timeline", vec![VmValue::Int(READ_LIMIT as i64)], None)
            };
            if spans.is_some() && w.requests.len() < CODEC_SAMPLES {
                w.requests.push(StoreRequest::Invoke {
                    object: object.0.clone(),
                    method: method.to_string(),
                    args: args.clone(),
                    read_only: !op.write,
                    internal: false,
                    collect_read_set: false,
                });
            }
            let client = i % clients.len();
            if let (Some(seq), true) = (seq, spans.is_some()) {
                posts += 1;
                if posts.is_multiple_of(TRACE_EVERY) {
                    tx.send(TraceJob { op: *op, due, seq, args, client }).expect("tracer alive");
                    continue;
                }
            }
            let (sink, op) = (Arc::clone(&sink), *op);
            let done = Box::new(move |r| {
                sink.complete(op, due, sent, seq, r);
            });
            clients[client].invoke_async(&object, method, args, !op.write, done);
        }
        ticks.push(Tick::now());
        w.seconds = seconds(&ticks);
        drop(tx);
        // The client deadline is 5 s; anything beyond that plus slack is
        // reported as undrained.
        sink.inflight.drain(Duration::from_secs(15));
        w.undrained = sink.inflight.get();
    });
    w.samples = std::mem::take(&mut *sink.samples.lock().expect("sink lock"));
    w.busy = w.samples.iter().map(|s| s.due + s.latency).max().unwrap_or_default();
    w.wrong = std::mem::take(&mut *sink.wrong.lock().expect("sink lock"));
    w.replies = std::mem::take(&mut *sink.replies.lock().expect("sink lock"));
    w
}

/// Send one post through `invoke_ctx` under a chosen trace id, then lay
/// the primary's recorded server stages under its root span.
fn trace_post(bench: &Bench, client: &StoreClient, sink: &Sink, job: TraceJob) {
    let log = sink.spans.as_ref().expect("traced window");
    let mut ctx = InvocationContext::client(Duration::from_secs(5));
    ctx.trace_id = TRACE_BASE + job.seq;
    ctx.invocation_id = lambda_telemetry::next_invocation_id();
    let sent = Instant::now();
    let object = ObjectId::new(account_id(job.op.account));
    let r = client.invoke_ctx(&ctx, &object, "create_post", job.args, false);
    // One shard: the post and every nested call run on the primary.
    let records = bench.primary.registry().spans_for(ctx.trace_id);
    let root = sink.complete(job.op, job.due, sent, Some(job.seq), r);
    // The recorders keep durations only, in recording order. The outer
    // invocation's execute span is the last one recorded before its own
    // commit and replicate; everything recorded between its queue span and
    // it belongs to the nested calls it made. Lay the outer stages end to
    // end from the send instant and the nested ones inside its execute.
    let name = |stage| match stage {
        Stage::Queue => "server.queue",
        Stage::Execute => "server.execute",
        Stage::Commit => "server.commit",
        Stage::Replicate => "server.replicate",
    };
    let outer_exec = records.iter().rposition(|r| r.stage == Stage::Execute).unwrap_or(0);
    let first_nested = usize::from(records.first().is_some_and(|r| r.stage == Stage::Queue));
    let mut at = log.ns(sent);
    for (i, rec) in records.iter().enumerate() {
        if (first_nested..outer_exec).contains(&i) {
            continue;
        }
        let id = log.record_ns(root, name(rec.stage), at, at + rec.duration_nanos);
        if i == outer_exec {
            let mut inner = at;
            for nested in &records[first_nested..outer_exec] {
                log.record_ns(id, name(nested.stage), inner, inner + nested.duration_nanos);
                inner += nested.duration_nanos;
            }
        }
        at += rec.duration_nanos;
    }
}
