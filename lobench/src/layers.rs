//! Per-layer measurements taken from outside each layer: counter deltas
//! read through the layers' public stats, and timed calls into their
//! public functions on scratch instances.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_kv::{BlockCacheStats, Db, Options, StatsSnapshot, WriteBatch};
use lambda_net::{null_handler, sync_handler, wire, LatencyModel, Network, NodeId, RpcNode};
use lambda_objects::{
    Engine, EngineConfig, InvocationContext, ObjectId, Scheduler, SchedulerMode, Stage,
    TypeRegistry,
};
use lambda_retwis::{account_id, user_module, user_type, USER_TYPE};
use lambda_store::proto::{decode_request, encode_request};
use lambda_store::{NodeStatsWire, StoreClient, StoreRequest, StoreResponse};
use lambda_telemetry::HistogramSnapshot;
use lambda_vm::{Host, HostError, Interpreter, Limits, VmValue};

use crate::cluster::Bench;
use crate::graph::Graph;
use crate::trace::SpanLog;
use crate::workload::{Picker, Spec, READ_LIMIT};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One reported metric: (name, unit, value).
pub type Metric = (&'static str, &'static str, f64);

/// Counters read from every layer at one instant.
pub struct Snap {
    at: Instant,
    steal: (u64, u64),
    /// Per storage node: (registry counters, node stats).
    nodes: Vec<(HashMap<&'static str, u64>, NodeStatsWire)>,
    primary: usize,
    stages: Vec<HistogramSnapshot>,
    db: StatsSnapshot,
    block: BlockCacheStats,
    net: (u64, u64, u64, u64),
    coord: HashMap<&'static str, u64>,
    retries: u64,
    edge: (u64, u64),
}

/// Read every counter the benchmark diffs.
pub fn snap(bench: &Bench, clients: &[StoreClient]) -> Snap {
    let storage = &bench.cluster.core.storage;
    let primary = storage.iter().position(|n| Arc::ptr_eq(n, &bench.primary)).expect("primary");
    let db = bench.primary.engine().db();
    let mut coord = HashMap::new();
    for c in &bench.cluster.core.coordinators {
        for (name, v) in c.registry().counters() {
            *coord.entry(name).or_default() += v;
        }
    }
    let edge = clients
        .iter()
        .filter_map(StoreClient::edge_cache_stats)
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    Snap {
        at: Instant::now(),
        steal: crate::procfs::host_steal(),
        nodes: storage
            .iter()
            .map(|n| (n.registry().counters().into_iter().collect(), n.stats()))
            .collect(),
        primary,
        stages: Stage::ALL.iter().map(|s| bench.primary.registry().stage_stats(*s)).collect(),
        db: db.stats(),
        block: db.block_cache_stats().unwrap_or_default(),
        net: bench.cluster.core.net.stats(),
        coord,
        retries: clients.iter().map(StoreClient::retries_performed).sum(),
        edge,
    }
}

/// The window between two snapshots.
pub struct Delta<'a> {
    /// Earlier snapshot.
    pub a: &'a Snap,
    /// Later snapshot.
    pub b: &'a Snap,
}

impl Delta<'_> {
    /// Wall time between the snapshots.
    pub fn seconds(&self) -> f64 {
        (self.b.at - self.a.at).as_secs_f64()
    }

    /// Share of host CPU time stolen by the hypervisor.
    pub fn steal_frac(&self) -> f64 {
        ratio((self.b.steal.0 - self.a.steal.0) as f64, (self.b.steal.1 - self.a.steal.1) as f64)
    }

    /// Increase of counter `name` at the primary.
    fn primary(&self, name: &str) -> f64 {
        let get = |s: &Snap| s.nodes[s.primary].0.get(name).copied().unwrap_or(0);
        get(self.b).saturating_sub(get(self.a)) as f64
    }

    /// Increase of counter `name` summed over every storage node.
    fn all(&self, name: &str) -> f64 {
        let sum =
            |s: &Snap| s.nodes.iter().map(|n| n.0.get(name).copied().unwrap_or(0)).sum::<u64>();
        sum(self.b).saturating_sub(sum(self.a)) as f64
    }

    /// Increase of a node-stats field summed over every storage node.
    fn stat(&self, f: impl Fn(&NodeStatsWire) -> u64) -> f64 {
        let sum = |s: &Snap| s.nodes.iter().map(|n| f(&n.1)).sum::<u64>();
        sum(self.b).saturating_sub(sum(self.a)) as f64
    }

    /// Mean microseconds of `stage` at the primary over the window.
    fn stage_mean_us(&self, stage: usize) -> f64 {
        let (a, b) = (&self.a.stages[stage], &self.b.stages[stage]);
        let total = |h: &HistogramSnapshot| h.count as f64 * h.mean_nanos as f64;
        ratio(total(b) - total(a), (b.count - a.count) as f64) / 1e3
    }

    fn coord(&self, name: &str) -> f64 {
        let get = |s: &Snap| s.coord.get(name).copied().unwrap_or(0);
        get(self.b).saturating_sub(get(self.a)) as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Operation counts of the window the deltas cover.
pub struct Counts {
    /// Completed operations.
    pub ops: f64,
    /// Posts that succeeded.
    pub writes: f64,
    /// Reads issued.
    pub reads: f64,
}

/// The counter-derived per-layer metrics, as (name, unit, value).
pub fn counter_metrics(d: &Delta, n: &Counts) -> Vec<Metric> {
    let edge_hits = (d.b.edge.0 - d.a.edge.0) as f64;
    let edge_lookups = edge_hits + (d.b.edge.1 - d.a.edge.1) as f64;
    let (db_a, db_b) = (&d.a.db, &d.b.db);
    let (bc_a, bc_b) = (&d.a.block, &d.b.block);
    let block_hits = (bc_b.hits - bc_a.hits) as f64;
    let block_lookups = block_hits + (bc_b.misses - bc_a.misses) as f64;
    let groups = (db_b.commit_groups - db_a.commit_groups) as f64;
    let kv_writes = (db_b.writes - db_a.writes) as f64;
    let rounds = d.primary("node_repl_rounds");
    let busy = d.b.nodes[d.b.primary].1.busy_nanos - d.a.nodes[d.a.primary].1.busy_nanos;
    vec![
        ("net.msgs_per_op", "msgs/op", ratio((d.b.net.0 - d.a.net.0) as f64, n.ops)),
        ("net.bytes_per_op", "B/op", ratio((d.b.net.3 - d.a.net.3) as f64, n.ops)),
        ("net.shed", "count", d.stat(|s| s.shed)),
        ("store.repl_rounds_per_write", "rounds/op", ratio(rounds, n.writes)),
        ("store.repl_entries_per_round", "entries", ratio(d.primary("node_repl_entries"), rounds)),
        ("store.repl_retries", "count", d.primary("node_repl_retries")),
        ("store.replicate_mean_us", "us", d.stage_mean_us(3)),
        ("store.primary_busy_workers", "workers", ratio(busy as f64, d.seconds() * 1e9)),
        ("store.edge_hit_ratio", "ratio", ratio(edge_hits, edge_lookups)),
        ("store.follower_read_share", "ratio", ratio(d.stat(|s| s.follower_reads), n.reads)),
        (
            "store.lease_rejections_per_kop",
            "1/kop",
            ratio(d.stat(|s| s.lease_rejections) * 1e3, n.ops),
        ),
        (
            "store.invalidations_per_write",
            "frames/op",
            ratio(d.stat(|s| s.invalidations_published), n.writes),
        ),
        (
            "store.client_retries_per_kop",
            "1/kop",
            ratio((d.b.retries - d.a.retries) as f64 * 1e3, n.ops),
        ),
        ("core.commits_per_write", "commits/op", ratio(d.primary("eng_commits"), n.writes)),
        ("core.nested_per_write", "calls/op", ratio(d.primary("eng_nested_calls"), n.writes)),
        ("core.commit_mean_us", "us", d.stage_mean_us(2)),
        ("core.queue_mean_us", "us", d.stage_mean_us(0)),
        ("core.execute_mean_us", "us", d.stage_mean_us(1)),
        ("core.cache_hit_ratio", "ratio", ratio(d.all("eng_cache_hits"), n.reads - edge_hits)),
        ("kv.fsyncs_per_write", "fsyncs/op", ratio(groups, n.writes)),
        (
            "kv.group_size",
            "batches",
            ratio((db_b.commit_group_batches - db_a.commit_group_batches) as f64, groups),
        ),
        ("kv.writes_per_op", "writes/op", ratio(kv_writes, n.ops)),
        ("kv.reads_per_op", "reads/op", ratio((db_b.reads - db_a.reads) as f64, n.ops)),
        ("kv.block_hit_ratio", "ratio", ratio(block_hits, block_lookups)),
        ("kv.flushes", "count", (db_b.flushes - db_a.flushes) as f64),
        ("kv.compactions", "count", (db_b.compactions - db_a.compactions) as f64),
        (
            "kv.commit_stall_us_per_write",
            "us",
            ratio((db_b.commit_stall_micros - db_a.commit_stall_micros) as f64, kv_writes),
        ),
        (
            "kv.wal_bytes_per_write",
            "B/op",
            ratio((db_b.wal_bytes - db_a.wal_bytes) as f64, n.writes),
        ),
        ("coord.proposals", "count", d.coord("coord_proposals")),
        ("coord.state_reads", "count", d.coord("coord_state_reads")),
    ]
}

/// Median of `samples` runs of `f`, each returning nanoseconds per call.
fn median_ns(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..samples).map(|_| f()).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nanoseconds per call of `f` over `calls` calls.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs each layer probe under a span and collects its metrics.
pub struct Probes<'a> {
    /// Scratch directory for probe databases.
    pub dir: &'a Path,
    /// Span log the probes record into.
    pub log: &'a SpanLog,
    /// The workload being measured.
    pub spec: &'a Spec,
    /// Its follow graph.
    pub graph: &'a Graph,
    /// Workload seed.
    pub seed: u64,
    /// Collected (name, unit, value).
    pub out: Vec<Metric>,
}

impl Probes<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let v = f();
        self.log.record(0, name, start, Instant::now());
        v
    }

    /// Wire codec on the window's real requests and replies, and one RPC
    /// hop on an instant network at their mean request frame size.
    pub fn net(&mut self, reqs: &[StoreRequest], replies: &[VmValue]) {
        let ctx = InvocationContext::client(Duration::from_secs(5));
        let frame =
            reqs.iter().map(|r| encode_request(&ctx, r).expect("encode").len()).sum::<usize>()
                / reqs.len().max(1);
        let req_ns = self.span("probe.net.codec_req", || {
            median_ns(15, || {
                per_pass(reqs, |r| {
                    let bytes = encode_request(&ctx, r).expect("encode");
                    std::hint::black_box(decode_request(&bytes).expect("decode"));
                })
            })
        });
        let resps: Vec<StoreResponse> =
            replies.iter().map(|v| StoreResponse::Value(v.clone())).collect();
        let reply_ns = self.span("probe.net.codec_reply", || {
            median_ns(15, || {
                per_pass(&resps, |r| {
                    let bytes = wire::to_bytes(r).expect("encode");
                    std::hint::black_box(
                        wire::from_bytes::<StoreResponse>(&bytes).expect("decode"),
                    );
                })
            })
        });
        let hop_ns = self.span("probe.net.rpc_hop", || {
            let net = Network::new(LatencyModel::instant(), self.seed);
            let server = RpcNode::start(&net, NodeId(1), sync_handler(|_, body| Ok(body)), 1);
            let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
            let body = vec![7u8; frame.max(1)];
            let call = || {
                client.call(NodeId(1), body.clone(), Duration::from_secs(1)).expect("rpc hop");
            };
            per_call_ns(100, call);
            let ns = median_ns(15, || per_call_ns(100, call));
            client.shutdown();
            server.shutdown();
            net.shutdown();
            ns
        });
        self.out.push(("net.codec_us.req", "us", req_ns / 1e3));
        self.out.push(("net.codec_us.reply", "us", reply_ns / 1e3));
        self.out.push(("net.rpc_hop_us", "us", hop_ns / 1e3));
    }

    /// Scheduler acquire + release, uncontended.
    pub fn scheduler(&mut self) {
        let sched = Scheduler::new(SchedulerMode::PerObject);
        let ids: Vec<ObjectId> = (0..64).map(|i| ObjectId::new(account_id(i))).collect();
        let ns = self.span("probe.core.sched_acquire", || {
            median_ns(15, || {
                let mut i = 0;
                per_call_ns(20_000, || {
                    drop(std::hint::black_box(sched.acquire_exclusive(&ids[i % ids.len()], &[])));
                    i += 1;
                })
            })
        });
        self.out.push(("core.sched_acquire_us", "us", ns / 1e3));
    }

    /// `Db::write` of a create_post-sized batch, with and without WAL sync.
    pub fn kv(&mut self) {
        let post = format!("user/000000|{}", crate::check::message(b'k', 0, self.spec.msg_bytes));
        for (sync, name, span) in [
            (true, "kv.commit_us.sync", "probe.kv.commit_sync"),
            (false, "kv.commit_us.nosync", "probe.kv.commit_nosync"),
        ] {
            let dir = self.dir.join(span);
            let db = Db::open(&dir, Options { sync_wal: sync, ..Options::default() })
                .expect("scratch db");
            let mut seq = 0u64;
            let ns = self.span(span, || {
                median_ns(15, || {
                    per_call_ns(if sync { 20 } else { 200 }, || {
                        let mut batch = WriteBatch::new();
                        batch.put(
                            format!("posts/{seq:012}").into_bytes(),
                            post.clone().into_bytes(),
                        );
                        batch.put(
                            format!("timeline/{seq:012}").into_bytes(),
                            post.clone().into_bytes(),
                        );
                        db.write(batch).expect("scratch write");
                        seq += 1;
                    })
                })
            });
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            self.out.push((name, "us", ns / 1e3));
        }
    }

    /// `Engine::invoke_ctx` on a local engine loaded with the same graph:
    /// no network, no replication, WAL unsynced.
    pub fn engine(&mut self) {
        let dir = self.dir.join("probe-engine");
        let db = Db::open(&dir, Options::default()).expect("scratch db");
        let types = Arc::new(TypeRegistry::new());
        types.register(user_type());
        let engine = Engine::new(db, types, EngineConfig::default());
        let id = |i: usize| ObjectId::new(account_id(i));
        for i in 0..self.graph.len() {
            engine.create_object(USER_TYPE, &id(i), &[("name", b"local")]).expect("local create");
        }
        for (follower, targets) in self.graph.followees.iter().enumerate() {
            for &t in targets {
                engine
                    .invoke(&id(t), "follow", vec![VmValue::Bytes(account_id(follower))])
                    .expect("local follow");
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x6c6f_6361_6c00_0000);
        let (authors, readers) = (Picker::new(self.spec.authors), Picker::new(self.spec.readers));
        let ctx = InvocationContext::client(Duration::from_secs(60));
        let mut seq = 0;
        let post_ns = self.span("probe.core.local_invoke_create_post", || {
            median_ns(15, || {
                per_call_ns(20, || {
                    let msg = crate::check::message(b'l', seq, self.spec.msg_bytes);
                    seq += 1;
                    let args = vec![VmValue::str(msg)];
                    engine
                        .invoke_ctx(&ctx, &id(authors.pick(&mut rng)), "create_post", args, true, 0)
                        .expect("local post");
                })
            })
        });
        let read_ns = self.span("probe.core.local_invoke_get_timeline", || {
            median_ns(15, || {
                per_call_ns(100, || {
                    let args = vec![VmValue::Int(READ_LIMIT as i64)];
                    engine
                        .invoke_ctx(
                            &ctx,
                            &id(readers.pick(&mut rng)),
                            "get_timeline",
                            args,
                            true,
                            0,
                        )
                        .expect("local read");
                })
            })
        });
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        self.out.push(("core.local_invoke_us.create_post", "us", post_ns / 1e3));
        self.out.push(("core.local_invoke_us.get_timeline", "us", read_ns / 1e3));
    }

    /// Fuel and execution time of the bytecode methods against an
    /// in-memory host holding five followers and a full timeline.
    pub fn vm(&mut self) {
        let module = user_module();
        let interp = Interpreter::new(Limits::default());
        let mut host = MemHost::default();
        for i in 1..=5 {
            host.push(b"followers", &account_id(i)).expect("memory host");
        }
        for i in 0..READ_LIMIT as u64 {
            let entry =
                format!("user/000001|{}", crate::check::message(b'v', i, self.spec.msg_bytes));
            host.push(b"timeline", entry.as_bytes()).expect("memory host");
        }
        let msg = VmValue::str(crate::check::message(b'v', 99, self.spec.msg_bytes));
        let limit = VmValue::Int(READ_LIMIT as i64);
        for (method, arg, fuel_name, us_name) in [
            ("create_post", msg, "vm.fuel.create_post", "vm.exec_us.create_post"),
            ("get_timeline", limit, "vm.fuel.get_timeline", "vm.exec_us.get_timeline"),
        ] {
            let run = |host: &mut MemHost| {
                interp
                    .execute_with_report(&module, method, vec![arg.clone()], host)
                    .expect("vm run")
                    .1
            };
            let fuel = run(&mut host).fuel_used;
            let ns = self.span(
                if method == "create_post" {
                    "probe.vm.create_post"
                } else {
                    "probe.vm.get_timeline"
                },
                || {
                    median_ns(15, || {
                        let mut h = host.clone();
                        per_call_ns(200, || {
                            std::hint::black_box(run(&mut h));
                        })
                    })
                },
            );
            self.out.push((fuel_name, "fuel", fuel as f64));
            self.out.push((us_name, "us", ns / 1e3));
        }
    }
}

/// Nanoseconds per item of one pass of `f` over `items`.
fn per_pass<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// An in-memory object: scalar fields plus append-only collections.
#[derive(Debug, Clone, Default)]
struct MemHost {
    fields: HashMap<Vec<u8>, Vec<u8>>,
    collections: HashMap<Vec<u8>, Vec<Vec<u8>>>,
}

impl Host for MemHost {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        Ok(self.fields.get(key).cloned())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.fields.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), HostError> {
        self.fields.remove(key);
        Ok(())
    }

    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.collections.entry(field.to_vec()).or_default().push(value.to_vec());
        Ok(())
    }

    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        let items = self.collections.get(field).map(Vec::as_slice).unwrap_or_default();
        Ok(if newest_first {
            items.iter().rev().take(limit).cloned().collect()
        } else {
            items.iter().take(limit).cloned().collect()
        })
    }

    fn count(&mut self, field: &[u8]) -> Result<u64, HostError> {
        Ok(self.collections.get(field).map_or(0, Vec::len) as u64)
    }

    fn invoke(
        &mut self,
        _object: &[u8],
        _method: &str,
        _args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        Ok(VmValue::Unit)
    }

    fn self_id(&self) -> Vec<u8> {
        account_id(0)
    }

    fn now_millis(&mut self) -> i64 {
        0
    }

    fn log(&mut self, _msg: &str) {}
}
